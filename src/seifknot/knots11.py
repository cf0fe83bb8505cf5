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

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
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


# A run of equal moves: (label, multiplicity, state after the run). A
# reduction is at most four runs, so its trace has size polynomial in the
# bit size of (a, b, c), not in their values.
Trace = list[tuple[str, int, KnotParams]]


def _family(k: KnotParams) -> int:
    """Index of the first reducible twist family k lies in: 0 for residue
    a, 1 for residue a + c (only when a > 0), 2 for residue a + b + c."""
    m, t = k.period, k.twist
    if t == k.a % m:
        return 0
    if k.a > 0 and t == (k.a + k.c) % m:
        return 1
    if t == (k.a + k.b + k.c) % m:
        return 2
    raise UnsupportedTwist(
        f"twist {t} mod {m} is not one of a, a+c, a+b+c for {k}"
    )


def _step(label: str, c: int) -> tuple[int, int, int, int]:
    """One move's change to (a, b, c, r) when c strands cross: I takes c
    off a and r, III moves a strand of a and one of c into b, IV takes one
    off b, c and r. A swap is a single move, recorded once made, so its
    step is zero."""
    return {
        "I": (-c, 0, 0, -c),
        "III": (-1, 1, -1, -1),
        "IV": (0, -1, -1, -1),
    }.get(label, (0, 0, 0, 0))


def _run(trace: Trace, label: str, runs: int, k: KnotParams) -> KnotParams:
    """Record `runs` moves `label` from k as one run; return its end."""
    da, db, dc, dr = _step(label, k.c)
    if da or db:  # not a swap, which is made before it is recorded
        k = KnotParams(k.a + runs * da, k.b + runs * db, k.c + runs * dc, k.r + runs * dr)
    trace.append((label, runs, k))
    return k


def _single_band(k: KnotParams, trace: Trace) -> tuple[int, int]:
    """Euclid on K(a, 0, c, a): move I takes a to a - c while a >= c, so
    one division step stands for a // c moves; gcd(a, c) is invariant."""
    if k.c and k.a >= k.c:
        k = _run(trace, "I", k.a // k.c, k)
    return normalize_lens(k.c, k.a)


def reduce_to_lens(k: KnotParams) -> tuple[tuple[int, int], Trace]:
    """Run the diagram moves until the underlying space is a lens space.

    Residue a + b + c swaps into residue a. On residue a, move III shrinks
    the outer and crossing bands into the middle one, min(a, c) times while
    b > 0; on residue a + c, move IV cancels each crossing strand against
    a middle one. An emptied band is then swapped out and Euclid finishes.

    Returns the normalized lens tuple and the move trace as runs (label,
    multiplicity, state after the run); there are at most four runs.
    Raises UnsupportedTwist when the twist residue is in none of the three
    reducible families, and ValueError when the family's coprimality
    condition fails. The multiplicities never sum to more than
    a + b + c + 2 moves.
    """
    family = _family(k)
    trace: Trace = []
    k = KnotParams(k.a, k.b, k.c, (k.a, k.a + k.c, k.a + k.b + k.c)[family])
    if family == 2:
        k = _run(trace, "swap", 1, swap(k))
    if family == 1:
        if k.c > k.b:
            k = _run(trace, "swap", 1, swap(k))
        if k.c:
            k = _run(trace, "IV", k.c, k)
    elif k.b and min(k.a, k.c):
        k = _run(trace, "III", min(k.a, k.c), k)
    if k.b:
        if not k.a:
            return normalize_lens(k.b + k.c, k.b), trace
        k = _run(trace, "swap0", 1, band_swap(k))
    return _single_band(k, trace), trace


def one_step_moves(trace: Trace) -> Iterator[tuple[str, int, int, int, int]]:
    """The moves of a run-length trace one at a time, as (label, a, b, c,
    r) after the move. Each axis of a run steps by `_step` up to the run's
    recorded end, or repeats where the step is zero."""
    return chain.from_iterable(
        zip(
            repeat(label, runs),
            *(
                range(x - (runs - 1) * d, x + d, d) if d else repeat(x, runs)
                for x, d in zip((end.a, end.b, end.c, end.r), _step(label, end.c))
            ),
        )
        for label, runs, end in trace
    )


def lens_closed_form(k: KnotParams) -> tuple[int, int]:
    """Closed-form ambient lens space, one formula per twist family:

    * residue a:         L(b+c, a+b)   needs gcd(b+c, a+b) = 1
    * residue a+c (a>0): L(b-c, a)     needs gcd(a, b-c) = 1
    * residue a+b+c:     L(b+c, a+c)   needs gcd(b+c, a+c) = 1

    The move-by-move reduction must agree with these on the nose.
    """
    a, b, c = k.a, k.b, k.c
    return normalize_lens(*((b + c, a + b), (b - c, a), (b + c, a + c))[_family(k)])


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
