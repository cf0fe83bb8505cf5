"""Finite group presentations, cyclic presentations, and the presentations
attached to the Seifert fibered spaces {Oo,0 | -1; (p,q) x n, (l,l-1)}: n
fibers of type (p, q) and one of type (l, l-1), exceptional when l >= 2.

Two presentations of the same fundamental group appear throughout:

* the cyclic presentation on n generators whose defining word is
  (x1^q ... xn^q)^l xn^-p, and
* the standard (n+2)-generator presentation with a central fiber generator.

`tietze_witnesses` produces the free-group identities that certify the
rewriting between the two; each witness is an exact equality of reduced
words, checkable without any group-theoretic machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Any, Sequence

from .freegroup import (
    FreeWord,
    format_word,
    generator,
    identity,
    parse_word,
    seifert_word,
)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: named generators and relator words."""

    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise ValueError("duplicate generator names")
        for r in self.relators:
            if r.n != n:
                raise ValueError("relator alphabet does not match generators")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def relation_matrix(self) -> list[list[int]]:
        """Exponent-sum matrix, one row per relator, one column per generator.

        Its cokernel over Z is the abelianization of the presented group.
        """
        return [list(r.exponent_vector()) for r in self.relators]

    def to_dict(self) -> dict[str, Any]:
        return {
            "generators": list(self.generators),
            "relators": [format_word(r, self.generators) for r in self.relators],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Presentation":
        """Inverse of to_dict. Anything but an object with a list of
        distinct string generators and a list of string relators raises
        ValueError; nothing is coerced."""
        if not isinstance(data, dict):
            raise ValueError("a presentation must be a JSON object")
        gens, rels = data.get("generators"), data.get("relators")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ValueError('"generators" must be a list of strings')
        if not isinstance(rels, list) or not all(isinstance(r, str) for r in rels):
            raise ValueError('"relators" must be a list of strings')
        names = tuple(gens)
        return cls(names, tuple(parse_word(t, len(names), names) for t in rels))

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(format_word(r, self.generators) for r in self.relators)
        return f"< {gens} | {rels} >"


def cyclic_presentation(w: FreeWord) -> Presentation:
    """The cyclic presentation on n generators defined by the word w: its
    relators are the n images of w under the shift substitution.
    """
    if w.n < 1:
        raise ValueError("cyclic presentation needs at least one generator")
    names = tuple(f"x{i}" for i in range(1, w.n + 1))
    relators = tuple(w.shift(k) for k in range(w.n))
    return Presentation(names, relators)


def validate_seifert_params(n: int, p: int, q: int, l: int) -> None:
    """Parameter constraints for the Seifert family with n fibers of type
    (p, q) and one of type (l, l-1): n >= 2 meridian indices, coprime
    1 <= q < p, l >= 1 and l >= 2 when n = 2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= q < p):
        raise ValueError("need 1 <= q < p")
    if gcd(p, q) != 1:
        raise ValueError("need gcd(p, q) = 1")
    if l < 1 or (n == 2 and l < 2):
        raise ValueError("need l >= 1, and l >= 2 when n = 2")


def seifert_cyclic_presentation(n: int, p: int, q: int, l: int) -> Presentation:
    """Cyclic presentation with defining word (x1^q ... xn^q)^l xn^-p."""
    validate_seifert_params(n, p, q, l)
    return cyclic_presentation(seifert_word(n, p, q, l))


def standard_seifert_presentation(n: int, p: int, q: int, l: int) -> Presentation:
    """The (n+2)-generator presentation of the same fundamental group: one
    generator per exceptional-fiber meridian (y1..yn all of type (p, q)),
    one extra fiber of type (l, l-1), and the central fiber class h.
    Relators: [yi, h] = yi^-1 h^-1 yi h, [y, h], yi^p h^q, y^l h^(l-1)
    and y1 ... yn y h.
    """
    validate_seifert_params(n, p, q, l)
    h = total = n + 2
    names = tuple(f"y{i}" for i in range(1, n + 1)) + ("y", "h")
    syllables = [[(i, -1), (h, -1), (i, 1), (h, 1)] for i in range(1, n + 2)]
    syllables += [[(i, p), (h, q)] for i in range(1, n + 1)]
    syllables.append([(n + 1, l), (h, l - 1)])
    syllables.append([(i, 1) for i in range(1, n + 2)] + [(h, 1)])
    return Presentation(names, tuple(FreeWord(total, s) for s in syllables))


def tietze_witnesses(
    n: int, p: int, q: int, l: int
) -> list[tuple[str, FreeWord, FreeWord]]:
    """Free-group identities certifying the equivalence of the cyclic and
    standard presentations for one parameter tuple.

    Returns (label, left, right) triples; the equivalence proof is valid
    exactly when every pair of sides is equal as a reduced word. Two
    families appear:

    * descent[i]: conjugating the (i+1)-th relator by the q-th power of
      its leading generator exposes the word x_i^p x_{i+1}^-p, the step
      that eliminates the central fiber generator;
    * rotate[i]: each relator is, up to descent words, a conjugate of its
      predecessor, so a single defining word suffices.
    """
    validate_seifert_params(n, p, q, l)
    w = seifert_word(n, p, q, l)
    shifts = [w.shift(i) for i in range(n + 1)]

    def x(i: int, e: int) -> FreeWord:
        return generator(n, i, e)

    out: list[tuple[str, FreeWord, FreeWord]] = []
    for i in range(1, n):
        lhs = shifts[i].inverse() * x(i + 1, q) * shifts[i + 1] * x(i + 1, -q)
        rhs = x(i, p) * x(i + 1, -p)
        out.append((f"descent[{i}]", lhs, rhs))
    chain = identity(n)
    for i in range(1, n):
        chain = chain * (x(i, p) * x(i + 1, -p))
    out.append(("rotate[1]", x(1, -q) * shifts[0] * chain.inverse() * x(1, q), shifts[1]))
    for i in range(2, n):
        lhs = x(i, -q) * shifts[i - 1] * (x(i - 1, p) * x(i, -p)) * x(i, q)
        out.append((f"rotate[{i}]", lhs, shifts[i]))
    return out


def seifert_parameter_grid(
    n_max: int, p_max: int, l_max: int
) -> list[tuple[int, int, int, int]]:
    """All valid (n, p, q, l) with n <= n_max, q < p <= p_max, l <= l_max."""
    grid = []
    for n in range(2, n_max + 1):
        for p in range(2, p_max + 1):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                for l in range(2 if n == 2 else 1, l_max + 1):
                    grid.append((n, p, q, l))
    return grid


# -- counting homomorphisms into finite permutation groups --------------------


class BudgetExceeded(RuntimeError):
    """Worst-case enumeration size exceeds the allowed budget."""


# worst-case candidate assignments `count_homomorphisms` enumerates unless
# told otherwise
DEFAULT_BUDGET = 10_000_000


def symmetric_group(m: int) -> list[tuple[int, ...]]:
    """All permutations of 0..m-1 as image tuples; composition is
    (p * q)[i] = p[q[i]]."""
    return [tuple(p) for p in itertools.permutations(range(m))]


def _group_tables(
    elements: Sequence[tuple[int, ...]],
) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Tables of the permutation group given by `elements` (closed under
    composition, containing the identity), on indices into `elements`:
    the multiplication table, each element's cyclic powers [1, x, x^2,
    ...] up to its order (so x^e = powers[x][e % len(powers[x])] for any
    integer e), and one (representative, class size) per conjugacy class,
    the class of the identity first. Raises ValueError for a bad target.
    """
    size = len(elements)
    if size == 0:
        raise ValueError("empty target group")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != size:
        raise ValueError("duplicate target elements")
    degree = len(elements[0])
    id_idx = index.get(tuple(range(degree)))
    if id_idx is None:
        raise ValueError("target must contain the identity permutation")
    try:
        mult = [
            [index[tuple(p[q[i]] for i in range(degree))] for q in elements]
            for p in elements
        ]
    except KeyError:
        raise ValueError("target is not closed under composition") from None
    powers = []
    for x in range(size):
        cycle = [id_idx]
        while (nxt := mult[cycle[-1]][x]) != id_idx:
            cycle.append(nxt)
        powers.append(cycle)
    classes = []
    seen = set()
    for x in [id_idx] + list(range(size)):
        if x not in seen:
            orbit = {mult[mult[g][x]][powers[g][-1]] for g in range(size)}
            seen |= orbit
            classes.append((x, len(orbit)))
    return mult, powers, classes


def count_homomorphisms(
    pres: Presentation,
    elements: Sequence[tuple[int, ...]],
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of homomorphisms from the presented group to the permutation
    group given by `elements` (which must be closed under composition and
    contain the identity), by backtracking over generator images.

    Each relator is checked as soon as every generator it mentions has an
    image, and generators appearing in the most relators are assigned
    first, so contradictions prune early. Conjugating a homomorphism by a
    fixed element gives another, so the first generator takes one
    representative of each conjugacy class of the target, its count
    weighted by the class size (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005). Raises BudgetExceeded when the
    worst case |elements| ** num_generators exceeds the budget, so
    callers can skip hopeless enumerations deterministically.
    """
    g = pres.num_generators
    if len(elements) ** g > budget:
        raise BudgetExceeded(
            f"{len(elements)}^{g} candidate assignments exceed the budget of {budget}"
        )
    mult, powers, classes = _group_tables(elements)
    id_idx = classes[0][0]

    participation = [0] * (g + 1)
    for r in pres.relators:
        for gi in r.support():
            participation[gi] += 1
    order = sorted(range(1, g + 1), key=lambda gi: (-participation[gi], gi))
    level_of = {gi: lvl for lvl, gi in enumerate(order)}
    # each syllable x^e as (level of x, the table of e-th powers)
    power_of: dict[int, list[int]] = {}
    ready: list[list[list[tuple[int, list[int]]]]] = [[] for _ in range(g)]
    for r in pres.relators:
        if not r.syllables:
            continue
        for _, e in r.syllables:
            if e not in power_of:
                power_of[e] = [cycle[e % len(cycle)] for cycle in powers]
        syls = [(level_of[gi], power_of[e]) for gi, e in r.syllables]
        ready[max(lvl for lvl, _ in syls)].append(syls)

    assign = [id_idx] * g
    everything = [(x, 1) for x in range(len(elements))]

    def satisfied(syls: list[tuple[int, list[int]]]) -> bool:
        val = id_idx
        for lvl, table in syls:
            val = mult[val][table[assign[lvl]]]
        return val == id_idx

    def descend(level: int, candidates: Sequence[tuple[int, int]]) -> int:
        if level == g:
            return 1
        total = 0
        for cand, weight in candidates:
            assign[level] = cand
            if all(satisfied(s) for s in ready[level]):
                total += weight * descend(level + 1, everything)
        return total

    return descend(0, classes)


def count_seifert_homomorphisms(
    n: int, p: int, q: int, l: int, elements: Sequence[tuple[int, ...]]
) -> int:
    """Number of homomorphisms from the group of the standard presentation
    for (n, p, q, l) to the permutation group given by `elements`, by the
    fibred structure instead of a search.

    A homomorphism is an image h of the fibre generator and images y1..yn,
    y commuting with h such that yi^p h^q = 1, y^l h^(l-1) = 1 and
    y1 ... yn y h = 1. So with
        A_h = {g in C(h) : g^p h^q = 1},  B_h = {g in C(h) : g^l h^(l-1) = 1},
    the count for a fixed h is the number of (y1, ..., yn, y) in
    A_h^n x B_h with y1 ... yn = (y h)^-1. A dynamic program over the
    prefix products y1 ... yk, which stay in C(h), counts these in
    O(n |C(h)| |A_h|) steps. Conjugating by a fixed element carries the
    tuples for h onto those for any conjugate of h, so h runs over one
    representative per conjugacy class, weighted by the class size. This
    is the element-wise form of the Frobenius-Mednykh count of
    homomorphisms from Fuchsian and Seifert groups (Mednykh 1978; G. A.
    Jones, Enumeration of homomorphisms and surface-coverings, 1995).
    """
    validate_seifert_params(n, p, q, l)
    mult, powers, classes = _group_tables(elements)
    id_idx = classes[0][0]

    def power(x: int, e: int) -> int:
        return powers[x][e % len(powers[x])]

    total = 0
    for h, weight in classes:
        centralizer = [x for x in range(len(elements)) if mult[x][h] == mult[h][x]]
        hq, hl = power(h, q), power(h, l - 1)
        a_h = [x for x in centralizer if mult[power(x, p)][hq] == id_idx]
        b_h = [x for x in centralizer if mult[power(x, l)][hl] == id_idx]
        prefix = {id_idx: 1}
        for _ in range(n):
            step: dict[int, int] = {}
            for x, ways in prefix.items():
                row = mult[x]
                for a in a_h:
                    step[row[a]] = step.get(row[a], 0) + ways
            prefix = step
        total += weight * sum(prefix.get(power(mult[b][h], -1), 0) for b in b_h)
    return total
