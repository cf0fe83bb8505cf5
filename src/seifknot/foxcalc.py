"""Free differential calculus and Alexander polynomials.

Relators are differentiated syllable-wise into integer Laurent polynomials
in one variable t, after sending generator i to t^(weight_i). The Alexander
matrix takes every weight 1, the right abelianization for knot group
presentations where every generator is a meridian. The Alexander
polynomial of a deficiency-one presentation is the gcd of the maximal
minors of that matrix, normalized so the lowest term is a positive
constant; the minors are taken by the fraction-free elimination of
`homology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freegroup import FreeWord
from .homology import fraction_free_determinant, poly_gcd
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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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

    def __floordiv__(self, other: "LaurentPoly") -> "LaurentPoly":
        """The exact quotient in Z[t, 1/t], by long division; raises
        ArithmeticError when other does not divide self. Both coefficient
        runs start with a nonzero term, so divisibility by a Laurent
        polynomial is divisibility of the runs as ordinary polynomials."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        width = len(div)
        quot = [0] * (len(rem) - width + 1)
        for i in reversed(range(len(quot))):
            c, r = divmod(rem[i + width - 1], div[-1])
            if r:
                raise ArithmeticError(f"{other} does not divide {self}")
            if c:
                quot[i] = c
                for j in range(width):
                    rem[i + j] -= c * div[j]
        if any(rem):
            raise ArithmeticError(f"{other} does not divide {self}")
        return LaurentPoly(self.low - other.low, quot)

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
        if not p:
            continue
        acc = poly_gcd(acc, list(p.coeffs))
        if acc == [1]:
            break
    return LaurentPoly(0, acc).normalized()


# -- Fox derivatives ----------------------------------------------------------


def _check_weights(n: int, weights: Sequence[int] | None) -> tuple[int, ...]:
    if weights is None:
        return (1,) * n
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError("one weight per generator required")
    for w in weights:
        if type(w) is not int:  # bool is a subclass of int
            raise ValueError(f"weights must be integers, got {w!r}")
    return weights


def fox_derivative(
    word: FreeWord, gen: int, weights: Sequence[int] | None = None
) -> LaurentPoly:
    """Free derivative of a word with respect to generator `gen`, pushed
    to Z[t, 1/t] by sending generator i to t^(weights[i-1]).

    Follows the product rule d(uv) = du + t^(weight of u) dv, with the
    closed form per syllable: d(x^e)/dx is 1 + t^w + ... + t^((e-1)w) for
    e > 0 and -(t^-w + ... + t^(e w)) for e < 0. The terms are summed by
    exponent in one pass, so the cost is linear in the word's letters.
    """
    weights = _check_weights(word.n, weights)
    if not 1 <= gen <= word.n:
        raise ValueError(f"generator index {gen} outside 1..{word.n}")
    coeffs: dict[int, int] = {}
    prefix = 0
    for g, e in word.syllables:
        w = weights[g - 1]
        if g == gen:
            sign, first = (1, prefix) if e > 0 else (-1, prefix + e * w)
            for k in range(abs(e)):
                exp = first + k * w
                coeffs[exp] = coeffs.get(exp, 0) + sign
        prefix += e * w
    terms = {exp: c for exp, c in coeffs.items() if c}
    if not terms:
        return LaurentPoly()
    low = min(terms)
    run = [0] * (max(terms) - low + 1)
    for exp, c in terms.items():
        run[exp - low] = c
    return LaurentPoly(low, run)


def alexander_matrix(pres: Presentation) -> list[list[LaurentPoly]]:
    """Fox derivative matrix: one row per relator, one column per
    generator, entries in Z[t, 1/t]."""
    return [
        [fox_derivative(r, j) for j in range(1, pres.num_generators + 1)]
        for r in pres.relators
    ]


def laurent_determinant(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant over Z[t, 1/t] by `homology.fraction_free_determinant`;
    a division that leaves a remainder raises ArithmeticError."""
    return fraction_free_determinant(matrix) if matrix else ONE


def alexander_polynomial(pres: Presentation) -> LaurentPoly:
    """Gcd of the maximal minors of the Fox derivative matrix of a
    deficiency-one presentation, in normalized form."""
    g = pres.num_generators
    if len(pres.relators) != g - 1:
        raise ValueError("need exactly one relator fewer than generators")
    matrix = alexander_matrix(pres)
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
