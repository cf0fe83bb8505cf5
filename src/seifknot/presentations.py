"""Finite group presentations, cyclic presentations, and the presentations
attached to Seifert fibered spaces over S^2 with three exceptional fibers.

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
    commutator,
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
    """Parameter constraints for the three-fiber Seifert family: n >= 2
    meridian indices, coprime 1 <= q < p, l >= 1 and l >= 2 when n = 2.
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
    """
    validate_seifert_params(n, p, q, l)
    total = n + 2
    names = tuple(f"y{i}" for i in range(1, n + 1)) + ("y", "h")
    y = [generator(total, i) for i in range(1, n + 1)]
    extra = generator(total, n + 1)
    h = generator(total, n + 2)
    relators: list[FreeWord] = []
    for i in range(n):
        relators.append(commutator(y[i], h))
    relators.append(commutator(extra, h))
    for i in range(n):
        relators.append(y[i] ** p * h**q)
    relators.append(extra**l * h ** (l - 1))
    surface = identity(total)
    for i in range(n):
        surface = surface * y[i]
    relators.append(surface * extra * h)
    return Presentation(names, tuple(relators))


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


def symmetric_group(m: int) -> list[tuple[int, ...]]:
    """All permutations of 0..m-1 as image tuples; composition is
    (p * q)[i] = p[q[i]]."""
    return [tuple(p) for p in itertools.permutations(range(m))]


def count_homomorphisms(
    pres: Presentation,
    elements: Sequence[tuple[int, ...]],
    budget: int = 10_000_000,
) -> int:
    """Number of homomorphisms from the presented group to the permutation
    group given by `elements` (which must be closed under composition and
    contain the identity), by plain backtracking over generator images.

    Each relator is checked as soon as every generator it mentions has an
    image, and generators appearing in the most relators are assigned
    first, so contradictions prune early. Powers are looked up in tables
    built once per call. Raises BudgetExceeded when the worst case
    |elements| ** num_generators exceeds the budget, so callers can skip
    hopeless enumerations deterministically.
    """
    g = pres.num_generators
    size = len(elements)
    if size == 0:
        raise ValueError("empty target group")
    if size**g > budget:
        raise BudgetExceeded(
            f"{size}^{g} candidate assignments exceed the budget of {budget}"
        )
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != size:
        raise ValueError("duplicate target elements")
    degree = len(elements[0])
    ident = tuple(range(degree))
    if ident not in index:
        raise ValueError("target must contain the identity permutation")
    id_idx = index[ident]
    try:
        mult = [
            [index[tuple(p[q[i]] for i in range(degree))] for q in elements]
            for p in elements
        ]
    except KeyError:
        raise ValueError("target is not closed under composition") from None
    inv = [row.index(id_idx) for row in mult]

    max_exp = 1
    for r in pres.relators:
        for _, e in r.syllables:
            max_exp = max(max_exp, abs(e))
    power = [[id_idx] * (max_exp + 1) for _ in range(size)]
    for i in range(size):
        for k in range(1, max_exp + 1):
            power[i][k] = mult[power[i][k - 1]][i]

    participation = [0] * (g + 1)
    for r in pres.relators:
        for gi in r.support():
            participation[gi] += 1
    order = sorted(range(1, g + 1), key=lambda gi: (-participation[gi], gi))
    level_of = {gi: lvl for lvl, gi in enumerate(order)}
    ready: list[list[list[tuple[int, int]]]] = [[] for _ in range(g)]
    for r in pres.relators:
        if not r.syllables:
            continue
        syls = [(level_of[gi], e) for gi, e in r.syllables]
        ready[max(lvl for lvl, _ in syls)].append(syls)

    assign = [id_idx] * g

    def satisfied(syls: list[tuple[int, int]]) -> bool:
        val = id_idx
        for lvl, e in syls:
            x = assign[lvl]
            if e < 0:
                x = inv[x]
                e = -e
            val = mult[val][power[x][e]]
        return val == id_idx

    def descend(level: int) -> int:
        if level == g:
            return 1
        total = 0
        for cand in range(size):
            assign[level] = cand
            if all(satisfied(s) for s in ready[level]):
                total += descend(level + 1)
        return total

    return descend(0)
