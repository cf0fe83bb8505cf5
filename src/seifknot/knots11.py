"""(1,1)-knots in lens spaces described by four strand parameters, the
diagram moves between equivalent descriptions, and the reduction that
computes the ambient lens space exactly.

A parameter tuple K(a, b, c, r) encodes a knot in one-bridge position with
respect to a genus-one Heegaard splitting: a parallel strands in each outer
band, b strands in the middle band, c strands crossing between the bands,
and a twist r counted modulo the period 2a + b + c. Three twist residues
admit a full reduction to a lens space; each has a closed-form answer and
a coprimality condition, and the move-by-move reduction must agree with
the closed form whenever that condition holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .presentations import validate_seifert_params


class UnsupportedTwist(ValueError):
    """Twist residue outside the three reducible families."""


# -- lens space bookkeeping ---------------------------------------------------


def normalize_lens(p: int, q: int) -> tuple[int, int]:
    """Canonical form of the lens space L(p, q).

    Uses |p|, reduces q mod p, and takes the least representative among
    q, -q, and their modular inverses, so homeomorphic lens spaces get
    equal tuples. (1, 0) is the 3-sphere and (0, 1) is S^2 x S^1; a pair
    with gcd(p, q) > 1 names no manifold and is rejected.
    """
    p = abs(p)
    if p == 0:
        if abs(q) != 1:
            raise ValueError(f"L(0, {q}) requires q = +-1")
        return (0, 1)
    if p == 1:
        return (1, 0)
    q %= p
    if gcd(p, q) != 1:
        raise ValueError(f"L({p}, {q}) requires gcd(p, q) = 1")
    inv = pow(q, -1, p)
    return (p, min(q, p - q, inv, p - inv))


def lens_name(space: tuple[int, int]) -> str:
    p, q = space
    if (p, q) == (1, 0):
        return "S^3"
    if (p, q) == (0, 1):
        return "S^2 x S^1"
    return f"L({p},{q})"


# -- knot parameter tuples ----------------------------------------------------


@dataclass(frozen=True)
class KnotParams:
    """Strand parameters (a, b, c) plus twist r of a one-bridge diagram."""

    a: int
    b: int
    c: int
    r: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("strand counts must be non-negative")
        if self.a + self.b + self.c == 0:
            raise ValueError("need at least one strand")

    @property
    def period(self) -> int:
        return 2 * self.a + self.b + self.c

    @property
    def twist(self) -> int:
        return self.r % self.period

    def __str__(self) -> str:
        return f"K({self.a},{self.b},{self.c},{self.r})"


def swap(k: KnotParams) -> KnotParams:
    """Exchange the middle and crossing bands; the twist reverses."""
    return KnotParams(k.a, k.c, k.b, k.period - k.twist)


def band_swap(k: KnotParams) -> KnotParams:
    """Exchange an empty middle band with the crossing band (or back)
    without touching the twist. Only valid when one of the two is empty.
    """
    if k.b and k.c:
        raise ValueError("band swap needs an empty middle or crossing band")
    return KnotParams(k.a, k.c, k.b, k.r)


Trace = list[tuple[str, KnotParams]]


def _with_twist(k: KnotParams, r: int) -> KnotParams:
    return KnotParams(k.a, k.b, k.c, r)


def _single_band(k: KnotParams, trace: Trace) -> tuple[tuple[int, int], Trace]:
    """Subtractive loop on K(a, 0, c, a); the gcd of (a, c) is invariant."""
    while True:
        if k.a == 0:
            return normalize_lens(k.c, 0), trace
        if k.c == 0:
            return normalize_lens(0, k.a), trace
        if k.a < k.c:
            return normalize_lens(k.c, k.a), trace
        k = KnotParams(k.a - k.c, 0, k.c, k.a - k.c)
        trace.append(("I", k))


def _reduce_aligned(k: KnotParams, trace: Trace) -> tuple[tuple[int, int], Trace]:
    """Twist residue a: shrink the outer/crossing bands into the middle."""
    while k.a > 0 and k.b > 0 and k.c > 0:
        k = KnotParams(k.a - 1, k.b + 1, k.c - 1, k.a - 1)
        trace.append(("III", k))
    if k.b > 0:
        if k.a == 0:
            return normalize_lens(k.b + k.c, k.b), trace
        k = band_swap(k)
        trace.append(("swap0", k))
    return _single_band(k, trace)


def _reduce_crossed(k: KnotParams, trace: Trace) -> tuple[tuple[int, int], Trace]:
    """Twist residue a + c: cancel crossing strands against the middle."""
    if k.c > k.b:
        k = swap(k)
        trace.append(("swap", k))
    while k.c > 0:
        k = KnotParams(k.a, k.b - 1, k.c - 1, k.r - 1)
        trace.append(("IV", k))
    if k.b > 0:
        k = band_swap(k)
        trace.append(("swap0", k))
    return _single_band(k, trace)


def reduce_to_lens(k: KnotParams) -> tuple[tuple[int, int], Trace]:
    """Run the diagram moves until the underlying space is a lens space.

    Returns the normalized lens tuple and the move trace (label, state
    after the move). Raises UnsupportedTwist when the twist residue is in
    none of the three reducible families, and ValueError when the family's
    coprimality condition fails. The trace never exceeds a + b + c + 2
    moves.
    """
    m = k.period
    t = k.twist
    trace: Trace = []
    if t == k.a % m:
        return _reduce_aligned(_with_twist(k, k.a), trace)
    if k.a > 0 and t == (k.a + k.c) % m:
        return _reduce_crossed(_with_twist(k, k.a + k.c), trace)
    if t == (k.a + k.b + k.c) % m:
        k = swap(_with_twist(k, k.a + k.b + k.c))
        trace.append(("swap", k))
        return _reduce_aligned(k, trace)
    raise UnsupportedTwist(
        f"twist {t} mod {m} is not one of a, a+c, a+b+c for {k}"
    )


def lens_closed_form(k: KnotParams) -> tuple[int, int]:
    """Closed-form ambient lens space, one formula per twist family:

    * residue a:         L(b+c, a+b)   needs gcd(b+c, a+b) = 1
    * residue a+c (a>0): L(b-c, a)     needs gcd(a, b-c) = 1
    * residue a+b+c:     L(b+c, a+c)   needs gcd(b+c, a+c) = 1

    The move-by-move reduction must agree with these on the nose.
    """
    m = k.period
    t = k.twist
    if t == k.a % m:
        return normalize_lens(k.b + k.c, k.a + k.b)
    if k.a > 0 and t == (k.a + k.c) % m:
        return normalize_lens(k.b - k.c, k.a)
    if t == (k.a + k.b + k.c) % m:
        return normalize_lens(k.b + k.c, k.a + k.c)
    raise UnsupportedTwist(
        f"twist {t} mod {m} is not one of a, a+c, a+b+c for {k}"
    )


# -- from Seifert parameters --------------------------------------------------


@dataclass(frozen=True)
class CoveredKnot:
    """A knot in a lens space together with the covering degree for which
    its strongly cyclic branched cover is the Seifert manifold, plus the
    alignment flag used when the diagram is built as a tessellation."""

    knot: KnotParams
    ambient: tuple[int, int]
    sheets: int
    shift: int


def knot_from_seifert(n: int, p: int, q: int, l: int) -> CoveredKnot:
    """The (1,1)-knot whose n-fold strongly cyclic branched cover is the
    Seifert manifold with invariants (n, p, q, l).

    Two formulas cover the two sign regimes of p - 2q; in both, the twist
    is p - q and the ambient space is L(nlq - p, q) up to normalization.
    """
    validate_seifert_params(n, p, q, l)
    if p >= 2 * q:
        knot = KnotParams(q, q * (n * l - 2), p - 2 * q, p - q)
        shift = 0
    else:
        knot = KnotParams(p - q, 2 * q - p, q * (n * l - 2), p - q)
        shift = 1
    ambient = normalize_lens(n * l * q - p, q)
    return CoveredKnot(knot=knot, ambient=ambient, sheets=n, shift=shift)


def coincident_seifert_params(
    n: int, p: int
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Two distinct parameter tuples presenting the same Seifert manifold:
    (n, p, p-1, 1) and (n-1, p, p-1, p). Their cyclic presentations differ,
    so they give two inequivalent branched-cover descriptions of one space.
    """
    if n < 3:
        raise ValueError("need n >= 3 so both tuples are valid")
    if p < 2:
        raise ValueError("need p >= 2")
    return (n, p, p - 1, 1), (n - 1, p, p - 1, p)
