"""Free differential calculus and Alexander polynomials.

Relators are differentiated syllable-wise into integer Laurent polynomials
in one variable t, after sending generator i to t^(weight_i); the default
weights are all 1, the right abelianization for knot group presentations
where every generator is a meridian. The Alexander polynomial of a
deficiency-one presentation is the gcd of the maximal minors of the
resulting matrix, normalized so the lowest term is a positive constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freegroup import FreeWord
from .homology import poly_gcd
from .presentations import Presentation


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in t: coefficient run starting at
    exponent `low`, trimmed at both ends (the zero polynomial is empty)."""

    low: int = 0
    coeffs: tuple[int, ...] = field(default=())

    def __init__(self, low: int = 0, coeffs: Sequence[int] = ()):
        run = list(coeffs)
        while run and run[-1] == 0:
            run.pop()
        while run and run[0] == 0:
            run.pop(0)
            low += 1
        if not run:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(run))

    @classmethod
    def monomial(cls, coef: int, exp: int = 0) -> "LaurentPoly":
        return cls(exp, (coef,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        if not self.coeffs:
            return 0
        return self.low + len(self.coeffs) - 1

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        run = [0] * (high - low + 1)
        for e, c in self.terms():
            run[e - low] += c
        for e, c in other.terms():
            run[e - low] += c
        return LaurentPoly(low, run)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        run = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    run[i + j] += c * d
        return LaurentPoly(self.low + other.low, run)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs for the nonzero terms, ascending."""
        return [
            (self.low + i, c) for i, c in enumerate(self.coeffs) if c
        ]

    def __call__(self, value: int | Fraction) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms():
            total += Fraction(c) * Fraction(value) ** e
        return total

    def normalized(self) -> "LaurentPoly":
        """Multiply by the unit +-t^k that puts the lowest term at
        exponent 0 with a positive coefficient."""
        if not self.coeffs:
            return LaurentPoly()
        sign = 1 if self.coeffs[0] > 0 else -1
        return LaurentPoly(0, [sign * c for c in self.coeffs])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1)


# -- gcd ----------------------------------------------------------------------


def laurent_gcd(polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """Gcd up to units +-t^k, returned in normalized form."""
    acc: list[int] = []
    for p in polys:
        if p.is_zero():
            continue
        acc = poly_gcd(acc, list(p.coeffs))
        if acc == [1]:
            break
    return LaurentPoly(0, acc).normalized()


# -- Fox derivatives ----------------------------------------------------------


def _check_weights(n: int, weights: Sequence[int] | None) -> tuple[int, ...]:
    if weights is None:
        return (1,) * n
    if len(weights) != n:
        raise ValueError("one weight per generator required")
    return tuple(int(w) for w in weights)


def fox_derivative(
    word: FreeWord, gen: int, weights: Sequence[int] | None = None
) -> LaurentPoly:
    """Free derivative of a word with respect to generator `gen`, pushed
    to Z[t, 1/t] by sending generator i to t^(weights[i-1]).

    Follows the product rule d(uv) = du + t^(weight of u) dv, with the
    closed form per syllable: d(x^e)/dx is 1 + t^w + ... + t^((e-1)w) for
    e > 0 and -(t^-w + ... + t^(e w)) for e < 0.
    """
    weights = _check_weights(word.n, weights)
    if not 1 <= gen <= word.n:
        raise ValueError(f"generator index {gen} outside 1..{word.n}")
    total = LaurentPoly()
    prefix = 0
    for g, e in word.syllables:
        w = weights[g - 1]
        if g == gen:
            if e > 0:
                for k in range(e):
                    total += LaurentPoly.monomial(1, prefix + k * w)
            else:
                for k in range(1, -e + 1):
                    total += LaurentPoly.monomial(-1, prefix - k * w)
        prefix += e * w
    return total


def alexander_matrix(
    pres: Presentation, weights: Sequence[int] | None = None
) -> list[list[LaurentPoly]]:
    """Fox derivative matrix: one row per relator, one column per
    generator, entries in Z[t, 1/t]."""
    weights = _check_weights(pres.num_generators, weights)
    return [
        [fox_derivative(r, j, weights) for j in range(1, pres.num_generators + 1)]
        for r in pres.relators
    ]


def _exact_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den in Z[t, 1/t] for a nonzero den, by long division; raises
    ArithmeticError when den does not divide num. Both coefficient runs
    start with a nonzero term, so divisibility by a Laurent polynomial is
    divisibility of the runs as ordinary polynomials."""
    rem = list(num.coeffs)
    div = den.coeffs
    width = len(div)
    quot = [0] * (len(rem) - width + 1)
    for i in reversed(range(len(quot))):
        c, r = divmod(rem[i + width - 1], div[-1])
        if r:
            raise ArithmeticError(f"{den} does not divide {num}")
        if c:
            quot[i] = c
            for j in range(width):
                rem[i + j] -= c * div[j]
    if any(rem):
        raise ArithmeticError(f"{den} does not divide {num}")
    return LaurentPoly(num.low - den.low, quot)


def laurent_determinant(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant over Z[t, 1/t] by fraction-free (Bareiss) elimination.

    Each step replaces a[i][j] by (a[i][j] a[k][k] - a[i][k] a[k][j]) / p,
    where p is the previous pivot; by Sylvester's identity the division
    is exact, and a remainder raises ArithmeticError. A zero pivot is
    replaced by swapping in a lower row, which flips the sign; a column
    with no nonzero pivot left makes the determinant zero.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("square matrix required")
    if size == 0:
        return ONE
    a = [list(row) for row in matrix]
    negate = False
    prev = ONE
    for k in range(size - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, size):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return ZERO
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1 :]:
            head = row[k]
            for j in range(k + 1, size):
                row[j] = _exact_quotient(row[j] * pivot - head * pivot_row[j], prev)
        prev = pivot
    det = a[size - 1][size - 1]
    return -det if negate else det


def alexander_polynomial(
    pres: Presentation, weights: Sequence[int] | None = None
) -> LaurentPoly:
    """Gcd of the maximal minors of the Fox derivative matrix of a
    deficiency-one presentation, in normalized form."""
    g = pres.num_generators
    if len(pres.relators) != g - 1:
        raise ValueError("need exactly one relator fewer than generators")
    matrix = alexander_matrix(pres, weights)
    minors = []
    for skip in range(g):
        square = [[row[j] for j in range(g) if j != skip] for row in matrix]
        minors.append(laurent_determinant(square))
    return laurent_gcd(minors)


def example_knot_presentation() -> Presentation:
    """A two-bridge-free worked example: three meridian generators and two
    length-12 relators; its Alexander polynomial is 1 - 4t + 5t^2 - 4t^3 + t^4
    and the determinant |Delta(-1)| is 15."""
    x, y, z = 1, 2, 3
    r1 = FreeWord(
        3,
        [(y, 1), (z, -1), (x, 1), (z, 1), (y, -1), (x, 1),
         (y, 1), (z, -1), (x, -1), (z, 1), (y, -1), (z, -1)],
    )
    r2 = FreeWord(
        3,
        [(x, -1), (z, 1), (y, 1), (z, -1), (x, 1), (z, 1),
         (x, -1), (z, 1), (y, -1), (z, -1), (x, 1), (y, -1)],
    )
    return Presentation(("x", "y", "z"), (r1, r2))
