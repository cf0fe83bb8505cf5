"""Exact integer linear algebra for abelianized group presentations.

Everything here runs over Z with arbitrary precision: Smith normal form,
whose unimodular certificates come from identities appended to the matrix
(a cokernel builds none); a fraction-free determinant that re-verifies
those certificates (and, over Z[t, 1/t], takes the Alexander minors of
`foxcalc`); and integer polynomials as coefficient lists: the gcd
that the Alexander polynomial needs, and resultants for the circulant
shortcut that computes the abelianization order of a cyclic presentation
straight from the exponent vector of its defining word. `seifert_h1` is
the Seifert family's H1 in closed form, for the Smith forms to meet;
`cyclic_h1` and `standard_h1` reduce either presentation to c*J + d*P,
whose cokernel `cokernel_cj_dp` gives in closed form, in time linear in
the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Any, Iterable, Sequence

from .freegroup import FreeWord
from .presentations import Presentation, validate_seifert_params

Matrix = list[list[int]]


def _int_list(entries: Iterable[int]) -> list[int]:
    """The entries as a list; anything but an int (a bool, a float, a
    string) raises ValueError instead of being coerced."""
    out = list(entries)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"entries must be integers, got {x!r}")
    return out


def _copy_matrix(mat: Sequence[Sequence[int]]) -> Matrix:
    rows = [_int_list(row) for row in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def matrix_multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions disagree")
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def fraction_free_determinant(mat: Sequence[Sequence[Any]]) -> Any:
    """Determinant of a non-empty square matrix over an exact domain, by
    fraction-free (Bareiss) elimination. The entries need `*`, `-`, an
    exact `//` and truthiness (false exactly for zero): ints, or the
    Laurent polynomials of `foxcalc`.

    Each step replaces a[i][j] by (a[i][j] a[k][k] - a[i][k] a[k][j]) / p,
    where p is the previous pivot (the first step divides by nothing); by
    Sylvester's identity the division is exact. A zero pivot is replaced
    by swapping in a lower row, which flips the sign; a column with no
    nonzero pivot left makes the determinant zero.
    """
    a = [list(row) for row in mat]
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise ValueError("square matrix required")
    negate = False
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return a[k][k]  # the domain's zero
        pivot, top = a[k][k], a[k]
        for row in a[k + 1 :]:
            head = row[k]
            for j in range(k + 1, n):
                cross = row[j] * pivot - head * top[j]
                row[j] = cross if prev is None else cross // prev
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if negate else det


def bareiss_determinant(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exact at every step (see
    `fraction_free_determinant`); the empty matrix has determinant 1."""
    a = _copy_matrix(mat)
    return fraction_free_determinant(a) if a else 1


def _diagonalize(a: Matrix, m: int, n: int) -> None:
    """Bring the leading m x n block of a to Smith normal form in place.

    Row operations act on whole rows and column operations on every row,
    so entries right of or below the block record them. Each pivot is a
    smallest nonzero entry of the working submatrix, which keeps entries
    tame without any randomization.
    """
    k = 0
    while k < min(m, n):
        best: tuple[int, int] | None = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] and (
                    best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])
                ):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            a[k], a[bi] = a[bi], a[k]
        if bj != k:
            for r in a:
                r[k], r[bj] = r[bj], r[k]
        top = a[k]
        pivot = top[k]
        dirty = False
        for i in range(k + 1, m):
            if a[i][k]:
                c = a[i][k] // pivot
                a[i] = [x - c * y for x, y in zip(a[i], top)]
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if top[j]:
                c = top[j] // pivot
                for r in a:
                    r[j] -= c * r[k]
                if top[j]:
                    dirty = True
        if dirty:
            continue
        stray = next(
            (i for i in range(k + 1, m) for j in range(k + 1, n) if a[i][j] % pivot),
            None,
        )
        if stray is not None:
            a[k] = [x + y for x, y in zip(top, a[stray])]
            continue
        if pivot < 0:
            a[k] = [-x for x in top]
        k += 1


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (d, u, v) with u*mat*v = d,
    u and v unimodular, d diagonal with non-negative entries in a
    divisibility chain and zeros trailing.

    Eliminating mat in the bordered matrix [[mat, I_m], [I_n]] turns I_m
    into u and I_n into v.
    """
    a = _copy_matrix(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    for i, row in enumerate(a):
        row += [int(i == j) for j in range(m)]
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    _diagonalize(a, m, n)
    return [r[:n] for r in a[:m]], [r[n:] for r in a[:m]], a[m:]


def verify_snf_certificate(
    mat: Sequence[Sequence[int]],
    d: Sequence[Sequence[int]],
    u: Sequence[Sequence[int]],
    v: Sequence[Sequence[int]],
) -> bool:
    """Re-check a Smith normal form from scratch: the transform identity,
    unimodularity of both certificates (via independent determinants), and
    the diagonal shape with its divisibility chain.
    """
    mat = _copy_matrix(mat)
    d = _copy_matrix(d)
    u = _copy_matrix(u)
    v = _copy_matrix(v)
    m = len(mat)
    n = len(mat[0]) if m else 0
    if len(u) != m or any(len(r) != m for r in u):
        return False
    if len(v) != n or any(len(r) != n for r in v):
        return False
    if len(d) != m or any(len(r) != n for r in d):
        return False
    if matrix_multiply(matrix_multiply(u, mat), v) != d:
        return False
    if abs(bareiss_determinant(u)) != 1 or abs(bareiss_determinant(v)) != 1:
        return False
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j and d[i][j]:
                return False
        if i < n:
            diag.append(d[i][i])
    for i, entry in enumerate(diag):
        if entry < 0:
            return False
        if i + 1 < len(diag):
            nxt = diag[i + 1]
            if entry == 0:
                if nxt != 0:
                    return False
            elif nxt % entry:
                return False
    return True


# -- abelian invariants ------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus torsion orders in
    a divisibility chain (each listed order > 1)."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("negative rank")
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion orders must exceed 1")
            if i and t % self.torsion[i - 1]:
                raise ValueError("torsion orders must form a divisibility chain")

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(rows: Sequence[Sequence[int]], num_columns: int) -> AbelianGroup:
    """Z^num_columns modulo the lattice spanned by the given rows."""
    rows = _copy_matrix(rows)
    if rows and len(rows[0]) != num_columns:
        raise ValueError("row width does not match column count")
    if not rows:
        return AbelianGroup(num_columns)
    _diagonalize(rows, len(rows), num_columns)
    diag = [rows[i][i] for i in range(min(len(rows), num_columns))]
    nonzero = [x for x in diag if x]
    return AbelianGroup(num_columns - len(nonzero), tuple(x for x in nonzero if x > 1))


def first_homology(pres: Presentation) -> AbelianGroup:
    """Abelianization of a presented group (first homology of any space
    with that fundamental group)."""
    return cokernel(pres.relation_matrix(), pres.num_generators)


def cokernel_cj_dp(n: int, c: int, d: int) -> AbelianGroup:
    """coker(c*J + d*P) for n >= 2, J the n x n all-ones matrix and P any
    n x n permutation matrix: Z/g + (Z/|d|)^(n-2) + Z/(|d(nc + d)|/g) with
    g = gcd(c, d), where an order 0 is a summand Z.

    Right multiplication by P^-1 permutes columns and fixes J, leaving
    c*J + d*I. Row i minus row i-1 (i >= 1) is d(e_i - e_(i-1)); replacing
    column j by the sum of columns j..n-1 turns those rows into d*e_i and
    row 0 into (nc + d, (n-1)c, ..., 2c, c). Column j -= (n-j) column n-1
    clears row 0 at 1 <= j <= n-2, and row n-1 += (n-j) row j undoes what
    that put in row n-1. All steps are unimodular and leave d*I_(n-2) next
    to the core [[nc + d, c], [0, d]] on rows and columns 0 and n-1, whose
    entries have gcd g and whose determinant is d(nc + d): invariant
    factors g and |d(nc + d)|/g. The chain g | d | d(nc + d)/g holds, as
    g divides nc + d."""
    if n < 2:
        raise ValueError("need n >= 2")
    g = gcd(c, d)
    orders = (g, *[abs(d)] * (n - 2), abs(d * (n * c + d)) // g if g else 0)
    return AbelianGroup(orders.count(0), tuple(t for t in orders if t > 1))


def cyclic_h1(pres: Presentation) -> AbelianGroup:
    """H1 of a cyclic presentation in time linear in its syllables, by
    `cokernel_cj_dp`: relator k must be relator 0 shifted by k, and the
    exponent sums of relator 0 constant c but for one entry c + d, so the
    relation matrix is c*J + d*P, P a cyclic shift (for the Seifert word,
    ql*J - p*C). A failed premise raises ValueError."""
    n = pres.num_generators
    rows = [r.exponent_vector() for r in pres.relators]
    if n < 2 or len(rows) != n:
        raise ValueError("need n >= 2 generators and one relator per generator")
    first = rows[0]
    for k, row in enumerate(rows):
        if row != first[n - k :] + first[: n - k]:
            raise ValueError(f"relator {k} is not relator 0 shifted by {k}")
    c = first[1] if n > 2 and first[0] not in first[1:3] else first[0]
    odd = [x - c for x in first if x != c]
    if len(odd) > 1:
        raise ValueError("relator 0's exponent sums are not constant but for one")
    return cokernel_cj_dp(n, c, sum(odd))


def _exponent_sums(word: FreeWord) -> dict[int, int]:
    """The nonzero exponent sums of a word, by generator."""
    sums: dict[int, int] = {}
    for g, e in word.syllables:
        sums[g] = sums.get(g, 0) + e
    return {g: e for g, e in sums.items() if e}


def standard_h1(pres: Presentation) -> AbelianGroup:
    """H1 of a standard Seifert presentation, in the relator order of
    `standard_seifert_presentation`, in time linear in its syllables.

    On the sparse exponent rows it checks that the n + 1 commutator rows
    vanish and the fibre rows are p e_i + q e_h (p, q nonzero), then makes
    `seifert_h1`'s two unit substitutions: the surface row eliminates y,
    then the (l, l-1) row, now t h + a(y1 + ... + yn) with t = +-1,
    eliminates h. The fibre rows become p*I - qta*J (p*I - ql*J in the
    family), which goes to `cokernel_cj_dp`. A failed premise raises
    ValueError."""
    n = pres.num_generators - 2
    y, h = n + 1, n + 2
    rows = [_exponent_sums(r) for r in pres.relators]
    if n < 2 or len(rows) != 2 * n + 3:
        raise ValueError("need n + 2 >= 4 generators and 2n + 3 relators")
    if any(rows[: n + 1]):
        raise ValueError("a commutator row does not vanish")
    fibres, extra, surface = rows[n + 1 : 2 * n + 1], rows[2 * n + 1], rows[-1]
    p, q = fibres[0].get(1), fibres[0].get(h)
    if any(row != {i: p, h: q} for i, row in enumerate(fibres, 1)):
        raise ValueError("the fibre rows are not p e_i + q e_h")
    s = surface.get(y)
    if s not in (1, -1):
        raise ValueError("the surface row's pivot on y is not +-1")
    k = extra.get(y, 0) * s  # s * s = 1, so y drops out of the row below
    rest = {
        g: extra.get(g, 0) - k * surface.get(g, 0) for g in extra.keys() | surface.keys()
    }
    t, a = rest.get(h), rest.get(1, 0)
    if t not in (1, -1):
        raise ValueError("the (l, l-1) row's pivot on h is not +-1")
    if any(rest.get(i, 0) != a for i in range(2, n + 1)):
        raise ValueError("the (l, l-1) row is not t h + a(y1 + ... + yn)")
    return cokernel_cj_dp(n, -q * t * a, p)


def seifert_h1(n: int, p: int, q: int, l: int) -> AbelianGroup:
    """H1 of the Seifert manifold with n fibres of type (p, q) and one of
    type (l, l-1), in closed form: (Z/p)^(n-2) + Z/g + Z/(p m / g) with
    m = |nlq - p| and g = gcd(p, l); the last summand is Z when m = 0.

    Abelianize the standard presentation. h is central, so the commutator
    rows vanish. The surface relator gives y = -(y1 + ... + yn + h), and
    the (l, l-1) relator then gives h = -l(y1 + ... + yn), a unit pivot.
    The n fibre relators become the matrix p*I - ql*J, J all ones. In the
    basis y1, d = y2 + ... + yn - (n - 1)y1 and yi - y1 for 3 <= i <= n,
    that is (Z/p)^(n-2) plus the cokernel of the rows (0, p) and
    (p - nlq, -ql) in y1, d: their entries have gcd gcd(p, ql) = g, as q
    is prime to p, and their determinant is -p(p - nlq), so the invariant
    factors are g and p m / g (0 when m = 0). g divides p and m, so p
    divides p m / g and the orders form a chain."""
    validate_seifert_params(n, p, q, l)
    g = gcd(p, l)
    m = abs(n * l * q - p)
    orders = (g, *[p] * (n - 2), p * m // g)  # a last order 0 is the summand Z
    return AbelianGroup(0 if m else 1, tuple(t for t in orders if t > 1))


# -- integer polynomials: gcd, resultants and circulants ---------------------


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """r with lc(g)^(deg f - deg g + 1) * f = q*g + r and deg r < deg g."""
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    for _ in range(len(f) - dg):
        if len(r) > dg:
            top = r[-1]
            shift = len(r) - 1 - dg
            r = [lc * x for x in r]
            for i, c in enumerate(g):
                r[shift + i] -= top * c
            r = _trim(r)
        else:
            r = [lc * x for x in r]
    return r


def _content(coeffs: Sequence[int]) -> int:
    out = 0
    for c in coeffs:
        out = gcd(out, c)
    return out


def _primitive(coeffs: list[int]) -> list[int]:
    cont = _content(coeffs)
    return [c // cont for c in coeffs] if cont else list(coeffs)


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Gcd in Z[t] via primitive pseudo-remainder sequences; the result
    has a positive leading coefficient."""
    f, g = _trim(list(f)), _trim(list(g))
    if not f:
        f, g = g, f
    if not g:
        out = list(f)
    else:
        cont = gcd(_content(f), _content(g))
        f, g = _primitive(f), _primitive(g)
        while g:
            if len(f) < len(g):
                f, g = g, f
                continue
            r = _primitive(_trim(_pseudo_remainder(f, g)))
            f, g = g, r
        out = [cont * c for c in f]
    if out and out[-1] < 0:
        out = [-c for c in out]
    return out


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer polynomials (coefficient lists, index =
    degree), computed exactly by a primitive pseudo-remainder sequence.

    The correction factors of each pseudo-division step are tracked as one
    exact rational multiplier, so the result is the true integer resultant,
    sign included. The resultant against the zero polynomial is 0.
    """
    a = _trim(_int_list(f))
    b = _trim(_int_list(g))
    if not a or not b:
        return 0
    sign = 1
    mult = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            a, b = b, a
            if (da * db) % 2:
                sign = -sign
            continue
        if db == 0:
            scaled = mult * Fraction(b[0]) ** da
            assert scaled.denominator == 1
            return sign * scaled.numerator
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        content = _content(r)
        r = [c // content for c in r]
        dr = len(r) - 1
        if (da * db) % 2:
            sign = -sign
        mult *= Fraction(content) ** db
        mult *= Fraction(b[-1]) ** (da - dr - (da - db + 1) * db)
        a, b = b, r


def circulant_order(first_row: Sequence[int]) -> int:
    """Absolute determinant of the circulant matrix with the given first
    row, i.e. the abelianization order of a cyclic presentation whose
    defining word has that exponent vector. Returns 0 when infinite.

    Computed as |Res(f(x), x^n - 1)| with f the first-row polynomial; the
    determinant of a circulant is the product of f over the n-th roots of
    unity, which is exactly that resultant up to sign.
    """
    n = len(first_row)
    if n == 0:
        raise ValueError("empty first row")
    cyclo = [-1] + [0] * (n - 1) + [1]
    return abs(resultant(list(first_row), cyclo))
