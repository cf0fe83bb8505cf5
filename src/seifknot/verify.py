"""End-to-end verification checks.

Each check exercises one externally stated guarantee of the toolkit. Five
are grid checks: a test of one point returning its failure text or None,
and a tail run once the whole grid has passed. `run_all` runs their tests
in one walk over the grid, sharing one defining word, knot cover and glued
diagram per point, and times every check; the CLI and the acceptance tests
read its results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

from .dunwoody import GluedDiagram, check_seifert_diagram, expected_identifications
from .foxcalc import (
    LaurentPoly,
    alexander_polynomial,
    example_knot_presentation,
    fox_derivative,
)
from .freegroup import FreeWord, format_word, parse_word, seifert_word
from .homology import (
    circulant_order,
    cyclic_h1,
    first_homology,
    seifert_h1,
    smith_normal_form,
    standard_h1,
    verify_snf_certificate,
)
from .knots11 import (
    CoveredKnot,
    KnotParams,
    UnsupportedTwist,
    coincident_seifert_params,
    knot_from_seifert,
    lens_closed_form,
    normalize_lens,
    reduce_to_lens,
)
from .presentations import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    count_homomorphisms,
    count_seifert_homomorphisms,
    cyclic_presentation,
    seifert_cyclic_presentation,
    seifert_parameter_grid,
    standard_seifert_presentation,
    symmetric_group,
    tietze_witnesses,
)

# (n_max, p_max, l_max) of the acceptance gate and of verify-all's defaults
GATE_GRID = (6, 7, 3)

EXAMPLE_ALEXANDER = LaurentPoly(0, (1, -4, 5, -4, 1))


def check_alexander_example() -> tuple[bool, str]:
    """The built-in knot presentation has the expected Alexander polynomial."""
    delta = alexander_polynomial(example_knot_presentation())
    expected = "1 - 4t + 5t^2 - 4t^3 + t^4"
    ok = delta == EXAMPLE_ALEXANDER and str(delta) == expected
    return ok, f"Delta(t) = {delta}"


def check_lens_closed_forms() -> tuple[bool, str]:
    """The run-length reduction agrees with the closed forms for every
    strand triple up to 12, under the per-family coprimality; the
    trace never sums to more than a + b + c + 2 moves; unsupported twists
    raise."""
    checked = 0
    rejected = 0
    for a in range(13):
        for b in range(13):
            for c in range(13):
                if a + b + c == 0:
                    continue
                m = 2 * a + b + c
                supported = {a % m, (a + b + c) % m}
                if a > 0:
                    supported.add((a + c) % m)
                residues = sorted(supported)
                for r in residues:
                    k = KnotParams(a, b, c, r)
                    try:
                        closed = lens_closed_form(k)
                    except UnsupportedTwist:
                        return False, f"dispatch refused its own residue on {k}"
                    except ValueError:
                        rejected += 1
                        try:
                            reduce_to_lens(k)
                        except UnsupportedTwist:
                            return False, f"engine refused residue on {k}"
                        except ValueError:
                            continue
                        return False, f"engine reduced non-coprime {k}"
                    lens, trace = reduce_to_lens(k)
                    if lens != closed:
                        return False, f"{k}: engine {lens} vs closed {closed}"
                    moves = sum(runs for _, runs, _ in trace)
                    if moves > a + b + c + 2:
                        return False, f"{k}: {moves} moves"
                    checked += 1
                for probe in range(m):
                    if probe in residues:
                        continue
                    try:
                        reduce_to_lens(KnotParams(a, b, c, probe))
                    except UnsupportedTwist:
                        break
                    return False, f"twist {probe} accepted on K({a},{b},{c},.)"
    return True, f"{checked} reductions agree, {rejected} coprimality rejections"


def check_determinant_bridge() -> tuple[bool, str]:
    """|Delta(-1)| of the example knot equals the abelianization order of
    the cyclic presentation for (2, 3, 2, 2), via both homology routes."""
    delta = alexander_polynomial(example_knot_presentation())
    det = abs(delta(-1))
    word = seifert_word(2, 3, 2, 2)
    h1 = first_homology(cyclic_presentation(word))
    circ = circulant_order(word.exponent_vector())
    ok = det == 15 == circ and h1.order() == 15
    return ok, f"|Delta(-1)| = {det}, H1 = {h1}, circulant order {circ}"


HOM_COUNT_POINTS = [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1)]


def check_hom_counts(budget: int = DEFAULT_BUDGET) -> tuple[bool, str]:
    """Counting homomorphisms into S3 and S4 gives the same number from
    both presentations: by backtracking on the cyclic one, by the fibred
    count on the standard one. Pairs whose backtracking is over the
    enumeration budget are skipped."""
    targets = [("S3", symmetric_group(3)), ("S4", symmetric_group(4))]
    lines = []
    skipped = []
    for point in HOM_COUNT_POINTS:
        for name, elements in targets:
            try:
                via_cyclic = count_homomorphisms(
                    seifert_cyclic_presentation(*point), elements, budget
                )
            except BudgetExceeded:
                skipped.append(f"{point}:{name}")
                continue
            via_standard = count_seifert_homomorphisms(*point, elements)
            if via_cyclic != via_standard:
                return (
                    False,
                    f"{point} to {name}: {via_cyclic} vs {via_standard}",
                )
            lines.append(f"{point}:{name}={via_cyclic}")
    if not lines:
        return False, "every pair was skipped"
    detail = ", ".join(lines)
    if skipped:
        detail += f"; skipped over budget: {', '.join(skipped)}"
    return True, detail


def check_property_suite(seed: int = 0) -> tuple[bool, str]:
    """Randomized algebra checks: free-group laws, re-verified Smith
    certificates, and the fundamental identity of the free calculus."""
    rng = random.Random(seed)

    def random_word(n: int, syllables: int) -> FreeWord:
        return FreeWord(
            n,
            [
                (rng.randint(1, n), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(syllables)
            ],
        )

    freegroup_cases = 10_000
    for _ in range(freegroup_cases):
        n = rng.randint(1, 5)
        u = random_word(n, rng.randint(0, 8))
        v = random_word(n, rng.randint(0, 8))
        w = random_word(n, rng.randint(0, 8))
        if (u * v) * w != u * (v * w):
            return False, f"associativity fails on {u}, {v}, {w}"
        if (u * v).inverse() != v.inverse() * u.inverse():
            return False, f"inverse law fails on {u}, {v}"
        if not (u * u.inverse()).is_identity():
            return False, f"cancellation fails on {u}"
        if len(u * v) > len(u) + len(v):
            return False, f"length grows on {u}, {v}"
        k = rng.randint(0, n)
        if (u * v).shift(k) != u.shift(k) * v.shift(k):
            return False, f"shift is not a homomorphism on {u}, {v}"
        if parse_word(format_word(u), n) != u:
            return False, f"round trip fails on {u}"
        ev = (u * v).exponent_vector()
        if ev != tuple(x + y for x, y in zip(u.exponent_vector(), v.exponent_vector())):
            return False, f"exponent vector not additive on {u}, {v}"

    snf_cases = 1_000
    for _ in range(snf_cases):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows and cols and rng.random() < 0.3:
            mat[rng.randrange(rows)] = [0] * cols
        if rows >= 2 and rng.random() < 0.3:
            mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
        d, u_cert, v_cert = smith_normal_form(mat)
        if not verify_snf_certificate(mat, d, u_cert, v_cert):
            return False, f"certificate fails on {mat}"

    fox_cases = 1_000
    for _ in range(fox_cases):
        n = rng.randint(1, 4)
        word = random_word(n, rng.randint(0, 6))
        weights = [rng.randint(-2, 3) for _ in range(n)]
        total = LaurentPoly()
        for j in range(1, n + 1):
            step = LaurentPoly.monomial(1, weights[j - 1]) - LaurentPoly.monomial(1, 0)
            total += fox_derivative(word, j, weights) * step
        full_weight = sum(
            e * weights[g - 1] for g, e in word.syllables
        )
        want = LaurentPoly.monomial(1, full_weight) - LaurentPoly.monomial(1, 0)
        if total != want:
            return False, f"calculus identity fails on {word}, {weights}"

    return True, (
        f"{freegroup_cases} word cases, {snf_cases} certificates, "
        f"{fox_cases} calculus identities (seed {seed})"
    )


# -- the grid checks, one point at a time -------------------------------------

Point = tuple[int, int, int, int]


@dataclass
class _GridPoint:
    """A grid point and what its tests share, each built when first read;
    a build that raises fails only the tests that read it."""

    point: Point

    @cached_property
    def word(self) -> FreeWord:
        return seifert_word(*self.point)

    @cached_property
    def cover(self) -> CoveredKnot:
        return knot_from_seifert(*self.point)

    @cached_property
    def diagram(self) -> tuple[GluedDiagram, bool]:
        """(diagram, relators match), from `check_seifert_diagram`."""
        return check_seifert_diagram(self.cover, self.word)


def _tietze_at(at: _GridPoint) -> str | None:
    """Every rewriting witness is a free-group identity."""
    for label, lhs, rhs in tietze_witnesses(*at.point):
        if lhs != rhs:
            return f"witness {label} fails at {at.point}"
    return None


def _tietze_tail(grid: list[Point]) -> tuple[bool, str]:
    pinned = tietze_witnesses(3, 2, 1, 1)[0]
    expected = FreeWord(3, [(1, 2), (2, -2)])
    if pinned[1] != expected or pinned[2] != expected:
        return False, "pinned witness at (3,2,1,1) does not equal x1^2 x2^-2"
    instances = sum(2 * n - 2 for n, _, _, _ in grid)  # n - 1 descents, n - 1 rotations
    return True, f"{len(grid)} parameter tuples, {instances} identities"


def _homology_at(at: _GridPoint) -> str | None:
    """Both presentations abelianize to the closed form `seifert_h1`, the
    cyclic one by its dense Smith form and by `cyclic_h1`, the route of
    `homology cyclic`; and the circulant shortcut agrees on the order."""
    point = at.point
    cyc = first_homology(cyclic_presentation(at.word))
    linear = cyclic_h1(at.word)
    std = standard_h1(standard_seifert_presentation(*point))
    closed = seifert_h1(*point)
    if cyc != closed or linear != closed or std != closed:
        return f"H1 mismatch at {point}: {cyc} vs {linear} vs {std} vs closed form {closed}"
    order = circulant_order(at.word.exponent_vector())
    if order != (cyc.order() or 0):  # 0 stands for an infinite H1
        return f"circulant order mismatch at {point}"
    return None


def _homology_tail(grid: list[Point]) -> tuple[bool, str]:
    pin1 = str(first_homology(seifert_cyclic_presentation(3, 2, 1, 1)))
    pin2 = str(first_homology(seifert_cyclic_presentation(2, 3, 2, 2)))
    if pin1 != "Z/2 + Z/2":
        return False, f"pinned H1 at (3,2,1,1) is {pin1}"
    if pin2 != "Z/15":
        return False, f"pinned H1 at (2,3,2,2) is {pin2}"
    return True, f"{len(grid)} parameter tuples, H1 equal both routes"


def _diagram_at(at: _GridPoint) -> str | None:
    """The diagram has counts (1, n, n, 1) and reads off the cyclic
    presentation's relators."""
    diagram, relators_match = at.diagram
    counts = diagram.counts()
    if counts != (1, at.point[0], at.point[0], 1):
        return f"counts {counts} at {at.point}"
    if not relators_match:  # false too when the criterion fails
        return f"diagram check fails at {at.point}"
    return None


def _identification_at(at: _GridPoint) -> str | None:
    """On the aligned branch p >= 2q, the glued slot pairs are exactly the
    two closed-form families as a multiset of unordered pairs, none glued
    against its orientation. This branch (shift 0) has twist residue
    a + c, which `knots11.reduce_to_lens` reduces by move IV; at p = 2q,
    where c = 0, that residue is a and is reduced as residue a."""
    point = at.point
    if point[1] < 2 * point[2]:
        return None
    diagram = at.diagram[0]
    params = diagram.params
    if params.s != 0 or params.r != params.a + params.c:
        return f"unexpected gluing data {params} at {point}"
    # each pair unordered, as (smaller id, larger id, glued reversed)
    rules = expected_identifications(params.a, params.b, params.c, params.n)
    expected = sorted([(u, v, False) if u < v else (v, u, False) for u, v in rules])
    glued = sorted([
        (u, v, eps == delta) if u < v else (v, u, eps == delta)
        for u, v, eps, delta in diagram.slots()
    ])
    if glued != expected:
        return f"identification mismatch at {point}"
    return None


def _cover_at(at: _GridPoint) -> str | None:
    """The knot attached to the point reduces to its stated ambient space."""
    point = n, p, q, l = at.point
    cover = at.cover
    k = cover.knot
    expected_r = k.a + k.c if cover.shift == 0 else k.a
    if k.r != p - q or k.r != expected_r:
        return f"twist {k.r} off at {point}"
    if lens_closed_form(k) != cover.ambient:
        return f"closed form disagrees at {point}"
    lens, trace = reduce_to_lens(k)
    if lens != cover.ambient:
        return f"reduction disagrees at {point}"
    if sum(runs for _, runs, _ in trace) > k.a + k.b + k.c + 2:
        return f"trace too long at {point}"
    return None


def _coincident_pairs(grid: list[Point]) -> tuple[bool, str]:
    """The coincident-parameter pairs match their closed forms and
    abelianizations (n up to 8)."""
    pairs = 0
    for n in range(3, 9):
        for p in range(2, 8):
            t1, t2 = coincident_seifert_params(n, p)
            cov1, cov2 = knot_from_seifert(*t1), knot_from_seifert(*t2)
            if p == 2:
                want1 = KnotParams(1, n - 2, 0, 1)
                want2 = KnotParams(1, 2 * n - 4, 0, 1)
            else:
                want1 = KnotParams(1, p - 2, (p - 1) * (n - 2), 1)
                want2 = KnotParams(1, p - 2, (p - 1) * (n * p - p - 2), 1)
            if cov1.knot != want1 or cov2.knot != want2:
                return False, f"pair knots off for n={n}, p={p}"
            if cov1.ambient != normalize_lens(n * p - n - p, p - 1) or (
                cov2.ambient != normalize_lens(p * (n * p - n - p), p - 1)
            ):
                return False, f"pair ambient off for n={n}, p={p}"
            h1 = first_homology(seifert_cyclic_presentation(*t1))
            h2 = first_homology(seifert_cyclic_presentation(*t2))
            if h1 != h2:
                return False, f"pair H1 split for n={n}, p={p}: {h1} vs {h2}"
            pairs += 1
    return True, f"{len(grid)} covers consistent, {pairs} coincident pairs agree"


# -- running the checks --------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def run_all(
    n_max: int = GATE_GRID[0],
    p_max: int = GATE_GRID[1],
    l_max: int = GATE_GRID[2],
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckResult]:
    """Run the ten checks, the grid checks' tests in one walk over the
    grid, each until its first failure; an exception fails only the check
    whose test raised. Then every check whose grid passed runs its tail.
    A check's seconds are its tests', its tail's and those of the shared
    words, covers and diagrams it read first. A grid with no parameter tuple (the grid
    checks would pass vacuously) and a budget below 1 raise ValueError."""
    grid = seifert_parameter_grid(n_max, p_max, l_max)
    if not grid:
        raise ValueError(
            f"the grid n <= {n_max}, p <= {p_max}, l <= {l_max} has no parameter "
            "tuple: need n_max >= 2, p_max >= 2, l_max >= 1 (l_max >= 2 when n_max = 2)"
        )
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    aligned = sum(p >= 2 * q for _, p, q, _ in grid)
    checks = [  # name, test of one grid point or None, tail
        ("alexander-example", None, check_alexander_example),
        ("tietze-grid", _tietze_at, lambda: _tietze_tail(grid)),
        ("homology-grid", _homology_at, lambda: _homology_tail(grid)),
        ("diagram-grid", _diagram_at, lambda: (
            True, f"{len(grid)} diagrams, all (1,n,n,1) with matching relators")),
        ("identification-rules", _identification_at, lambda: (
            True, f"{aligned} aligned-branch points, slot pairs identical")),
        ("lens-closed-forms", None, check_lens_closed_forms),
        ("parameter-consistency", _cover_at, lambda: _coincident_pairs(grid)),
        ("determinant-bridge", None, check_determinant_bridge),
        ("hom-counts", None, lambda: check_hom_counts(budget)),
        ("property-suite", None, lambda: check_property_suite(seed)),
    ]
    failures: dict[str, str | None] = {name: None for name, _, _ in checks}
    seconds = dict.fromkeys(failures, 0.0)
    for point in grid:
        at = _GridPoint(point)
        for name, test, _ in checks:
            if test is not None and failures[name] is None:
                start = perf_counter()
                try:
                    failures[name] = test(at)
                except Exception as exc:  # fails this check only
                    failures[name] = f"{type(exc).__name__}: {exc}"
                seconds[name] += perf_counter() - start
    del at  # nothing built for a point outlives it
    results = []
    for name, _, tail in checks:
        start = perf_counter()
        passed, detail = False, failures[name]
        if detail is None:
            try:
                passed, detail = tail()
            except Exception as exc:  # report, never hide, an unexpected blowup
                passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds[name] += perf_counter() - start
        results.append(CheckResult(name, passed, detail, seconds[name]))
    return results
