"""End-to-end verification checks.

Each check exercises one externally stated guarantee of the toolkit over
an explicit parameter grid and returns (passed, detail). `run_all` wraps
them with timing for the command line; the test suite calls the same
functions, so the CLI and CI agree by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

from .dunwoody import (
    GluedDiagram,
    check_seifert_diagram,
    diagram_from_seifert,
    edge_partition_from_pairs,
    expected_identifications,
)
from .foxcalc import (
    LaurentPoly,
    alexander_polynomial,
    example_knot_presentation,
    fox_derivative,
)
from .freegroup import FreeWord, format_word, parse_word, seifert_word
from .homology import (
    circulant_order,
    first_homology,
    smith_normal_form,
    verify_snf_certificate,
)
from .knots11 import (
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
    count_homomorphisms,
    cyclic_presentation,
    seifert_cyclic_presentation,
    seifert_parameter_grid,
    standard_seifert_presentation,
    symmetric_group,
    tietze_witnesses,
)

DEFAULT_BUDGET = 10_000_000

# (n_max, p_max, l_max) of the acceptance gate and of verify-all's defaults
GATE_GRID = (6, 7, 3)

EXAMPLE_ALEXANDER = LaurentPoly(0, (1, -4, 5, -4, 1))


def check_alexander_example() -> tuple[bool, str]:
    """The built-in knot presentation has the expected Alexander polynomial."""
    delta = alexander_polynomial(example_knot_presentation())
    expected = "1 - 4t + 5t^2 - 4t^3 + t^4"
    ok = delta == EXAMPLE_ALEXANDER and str(delta) == expected
    return ok, f"Delta(t) = {delta}"


def check_tietze_grid(
    n_max: int = GATE_GRID[0], p_max: int = GATE_GRID[1], l_max: int = GATE_GRID[2]
) -> tuple[bool, str]:
    """Every rewriting witness is a free-group identity, over the grid."""
    grid = seifert_parameter_grid(n_max, p_max, l_max)
    instances = 0
    for point in grid:
        for label, lhs, rhs in tietze_witnesses(*point):
            instances += 1
            if lhs != rhs:
                return False, f"witness {label} fails at {point}"
    pinned = tietze_witnesses(3, 2, 1, 1)[0]
    expected = FreeWord(3, [(1, 2), (2, -2)])
    if pinned[1] != expected or pinned[2] != expected:
        return False, "pinned witness at (3,2,1,1) does not equal x1^2 x2^-2"
    return True, f"{len(grid)} parameter tuples, {instances} identities"


def check_homology_grid(
    n_max: int = GATE_GRID[0], p_max: int = GATE_GRID[1], l_max: int = GATE_GRID[2]
) -> tuple[bool, str]:
    """Both presentations abelianize identically; the circulant shortcut
    agrees; two pinned values hold."""
    grid = seifert_parameter_grid(n_max, p_max, l_max)
    for point in grid:
        cyc = first_homology(seifert_cyclic_presentation(*point))
        std = first_homology(standard_seifert_presentation(*point))
        if cyc != std:
            return False, f"H1 mismatch at {point}: {cyc} vs {std}"
        order = circulant_order(seifert_word(*point).exponent_vector())
        expected_order = cyc.order()
        if (expected_order is None and order != 0) or (
            expected_order is not None and order != expected_order
        ):
            return False, f"circulant order mismatch at {point}"
    pin1 = str(first_homology(seifert_cyclic_presentation(3, 2, 1, 1)))
    pin2 = str(first_homology(seifert_cyclic_presentation(2, 3, 2, 2)))
    if pin1 != "Z/2 + Z/2":
        return False, f"pinned H1 at (3,2,1,1) is {pin1}"
    if pin2 != "Z/15":
        return False, f"pinned H1 at (2,3,2,2) is {pin2}"
    return True, f"{len(grid)} parameter tuples, H1 equal both routes"


def check_diagram_grid(
    n_max: int = GATE_GRID[0], p_max: int = GATE_GRID[1], l_max: int = GATE_GRID[2]
) -> tuple[bool, str]:
    """Every diagram on the grid has counts (1, n, n, 1) and reads off the
    cyclic presentation's relators."""
    grid = seifert_parameter_grid(n_max, p_max, l_max)
    for point in grid:
        n = point[0]
        report = check_seifert_diagram(*point)
        if report.counts != (1, n, n, 1):
            return False, f"counts {report.counts} at {point}"
        if not report.criterion or not report.relators_match:
            return False, f"diagram check fails at {point}"
    return True, f"{len(grid)} diagrams, all (1,n,n,1) with matching relators"


def check_identification_rules(
    n_max: int = GATE_GRID[0], p_max: int = GATE_GRID[1], l_max: int = GATE_GRID[2]
) -> tuple[bool, str]:
    """On the aligned branch, the glued edge identifications are exactly
    the two closed-form families, orientations included."""
    grid = [pt for pt in seifert_parameter_grid(n_max, p_max, l_max) if pt[1] >= 2 * pt[2]]
    for point in grid:
        params = diagram_from_seifert(*point)
        if params.s != 0 or params.r != params.a + params.c:
            return False, f"unexpected gluing data {params} at {point}"
        diagram = GluedDiagram(params)
        pairs = expected_identifications(params.a, params.b, params.c, params.n)
        if len(pairs) != params.n * diagram.tessellation.cycle_length:
            return False, f"rule count off at {point}"
        oracle = edge_partition_from_pairs(diagram.tessellation.edges, pairs)
        if oracle != diagram.edge_location:
            return False, f"identification mismatch at {point}"
    return True, f"{len(grid)} aligned-branch points, partitions identical"


def check_lens_closed_forms(limit: int = 12) -> tuple[bool, str]:
    """Move-by-move reduction agrees with the closed forms for every
    strand triple up to the limit, under the per-family coprimality; the
    trace never exceeds a + b + c + 2 moves; unsupported twists raise."""
    checked = 0
    rejected = 0
    for a in range(limit + 1):
        for b in range(limit + 1):
            for c in range(limit + 1):
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
                    if len(trace) > a + b + c + 2:
                        return False, f"{k}: {len(trace)} moves"
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


def check_parameter_consistency(
    n_max: int = GATE_GRID[0], p_max: int = GATE_GRID[1], l_max: int = GATE_GRID[2]
) -> tuple[bool, str]:
    """The knot attached to each grid point reduces to its stated ambient
    space, and the coincident-parameter pairs match their closed forms and
    abelianizations (n up to 8)."""
    grid = seifert_parameter_grid(n_max, p_max, l_max)
    for n, p, q, l in grid:
        cover = knot_from_seifert(n, p, q, l)
        k = cover.knot
        expected_r = k.a + k.c if cover.shift == 0 else k.a
        if k.r != p - q or k.r != expected_r:
            return False, f"twist {k.r} off at {(n, p, q, l)}"
        if lens_closed_form(k) != cover.ambient:
            return False, f"closed form disagrees at {(n, p, q, l)}"
        lens, trace = reduce_to_lens(k)
        if lens != cover.ambient:
            return False, f"reduction disagrees at {(n, p, q, l)}"
        if len(trace) > k.a + k.b + k.c + 2:
            return False, f"trace too long at {(n, p, q, l)}"
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
            if cov1.ambient != normalize_lens(n * p - n - p, p - 1):
                return False, f"pair ambient off for n={n}, p={p}"
            if cov2.ambient != normalize_lens(p * (n * p - n - p), p - 1):
                return False, f"pair ambient off for n={n}, p={p}"
            h1 = first_homology(seifert_cyclic_presentation(*t1))
            h2 = first_homology(seifert_cyclic_presentation(*t2))
            if h1 != h2:
                return False, f"pair H1 split for n={n}, p={p}: {h1} vs {h2}"
            pairs += 1
    return True, f"{len(grid)} covers consistent, {pairs} coincident pairs agree"


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
    both presentations; pairs over the enumeration budget are skipped."""
    targets = [("S3", symmetric_group(3)), ("S4", symmetric_group(4))]
    lines = []
    skipped = []
    for point in HOM_COUNT_POINTS:
        for name, elements in targets:
            try:
                via_cyclic = count_homomorphisms(
                    seifert_cyclic_presentation(*point), elements, budget
                )
                via_standard = count_homomorphisms(
                    standard_seifert_presentation(*point), elements, budget
                )
            except BudgetExceeded:
                skipped.append(f"{point}:{name}")
                continue
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


CheckFn = Callable[[], tuple[bool, str]]


def _named_checks(
    n_max: int, p_max: int, l_max: int, seed: int, budget: int
) -> list[tuple[str, CheckFn]]:
    return [
        ("alexander-example", check_alexander_example),
        ("tietze-grid", lambda: check_tietze_grid(n_max, p_max, l_max)),
        ("homology-grid", lambda: check_homology_grid(n_max, p_max, l_max)),
        ("diagram-grid", lambda: check_diagram_grid(n_max, p_max, l_max)),
        (
            "identification-rules",
            lambda: check_identification_rules(n_max, p_max, l_max),
        ),
        ("lens-closed-forms", check_lens_closed_forms),
        (
            "parameter-consistency",
            lambda: check_parameter_consistency(n_max, p_max, l_max),
        ),
        ("determinant-bridge", check_determinant_bridge),
        ("hom-counts", lambda: check_hom_counts(budget)),
        ("property-suite", lambda: check_property_suite(seed)),
    ]


def run_named_check(name: str, fn: CheckFn) -> CheckResult:
    start = perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # report, never hide, an unexpected blowup
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, perf_counter() - start)


def run_all(
    n_max: int = GATE_GRID[0],
    p_max: int = GATE_GRID[1],
    l_max: int = GATE_GRID[2],
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    fail_fast: bool = False,
) -> list[CheckResult]:
    results = []
    for name, fn in _named_checks(n_max, p_max, l_max, seed, budget):
        result = run_named_check(name, fn)
        results.append(result)
        if fail_fast and not result.passed:
            break
    return results
