"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no import of `seifknot`: the
benchmark makes its inputs itself and hands the program only the finished
inputs (command lines, presentation files, presentation dicts).

Each pass of a run gets its own ops, drawn from the seed and the pass
index: the sizes that set an op's cost stay the same in every pass, while
the other parameters and the order are drawn anew. So a pass costs about
the same each time, but no input repeats from one pass to the next, and
memoising results across calls cannot pass for a faster program.

Op records are JSON-serialisable dicts, so "the same seed gives the same
ops" can be checked byte for byte. Each op's `slot` names its place in
the pass (its kind and size), the same in every pass.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

WORKLOADS = ("grid-sweep", "point-queries", "hom-search")


def pass_rng(seed: int, pass_index: int) -> random.Random:
    """The random source of one pass of a seeded run."""
    return random.Random(f"{seed}/{pass_index}")

# -- grid-sweep -----------------------------------------------------------------

GRID = {"nmax": 8, "pmax": 11, "lmax": 4}
GRID_BUDGET = 1_000_000_000

# Check names `verify-all` reports, in order.
CHECKS = (
    "alexander-example",
    "tietze-grid",
    "homology-grid",
    "diagram-grid",
    "identification-rules",
    "lens-closed-forms",
    "parameter-consistency",
    "determinant-bridge",
    "hom-counts",
    "property-suite",
)


def grid_points(nmax: int, pmax: int, lmax: int) -> list[tuple[int, int, int, int]]:
    """The valid (n, p, q, l) of the verify-all grid: n <= nmax,
    coprime 1 <= q < p <= pmax, 1 <= l <= lmax and l >= 2 when n = 2."""
    return [
        (n, p, q, l)
        for n in range(2, nmax + 1)
        for p in range(2, pmax + 1)
        for q in range(1, p)
        if gcd(p, q) == 1
        for l in range(2 if n == 2 else 1, lmax + 1)
    ]


def grid_sweep_ops(seed: int, pass_index: int = 0) -> list[dict]:
    """One op: the whole stress-grid `verify-all`. A seed drawn for the
    pass is passed on as verify-all's own --seed, which seeds its
    randomized property-suite (12 000 cases, so its cost hardly varies)."""
    argv = [
        "--json",
        "--seed",
        str(pass_rng(seed, pass_index).getrandbits(31)),
        "--budget",
        str(GRID_BUDGET),
        "verify-all",
        "--nmax",
        str(GRID["nmax"]),
        "--pmax",
        str(GRID["pmax"]),
        "--lmax",
        str(GRID["lmax"]),
    ]
    points = len(grid_points(**GRID))
    return [{"id": 0, "slot": 0, "kind": "verify-all", "argv": argv, "points": points}]


# -- point-queries --------------------------------------------------------------

# Per-kind (lowest, highest) size. The highest size is where the seed
# code takes about 0.5 s per query on a 2-vCPU Xeon; the size that sets the
# cost differs per kind and is named in SIZE_OF.
CEILINGS = {
    "present": (2, 1200),
    "tietze": (2, 1100),
    "homology-cyclic": (2, 150),
    "homology-standard": (2, 150),
    "knot-reduce": (8, 70_000),
    "dunwoody-check": (12, 15_000),
    "alexander": (2, 8),
}
SIZE_OF = {
    "present": "l",
    "tietze": "l",
    "homology-cyclic": "n",
    "homology-standard": "n",
    "knot-reduce": "a+b+c",
    "dunwoody-check": "glued slots n*(2a+b+c)",
    "alexander": "generators",
}
POINT_KINDS = tuple(CEILINGS)
OPS_PER_KIND = 18


def _log_quantiles(lo: float, hi: float, k: int) -> list[float]:
    """k sizes spread by the log-uniform law on [lo, hi]: the midpoints of
    its k quantile strata. Sizes are not left to the seed, because one
    draw near the ceiling would move a pass's total cost by tens of
    percent; the seed draws every other parameter and the order."""
    return [lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)]


def _coprime_pq(rng: random.Random, pmax: int, qmax: int | None = None) -> tuple[int, int]:
    while True:
        p = rng.randint(2, pmax)
        q = rng.randint(1, min(p - 1, qmax or p - 1))
        if gcd(p, q) == 1:
            return p, q


def seifert_word_syllables(n: int, p: int, q: int, l: int) -> list[tuple[int, int]]:
    """Reduced syllables of (x1^q ... xn^q)^l xn^-p."""
    syl = [(i, q) for _ in range(l) for i in range(1, n + 1)]
    syl[-1] = (n, q - p)
    return syl


def format_syllables(syl: list[tuple[int, int]], names: list[str]) -> str:
    if not syl:
        return "1"
    return " ".join(
        names[g - 1] if e == 1 else f"{names[g - 1]}^{e}" for g, e in syl
    )


def cyclic_presentation_dict(n: int, p: int, q: int, l: int) -> dict:
    """The cyclic presentation of (n, p, q, l) as `Presentation.to_dict`
    writes it: relator k is the defining word shifted by k."""
    names = [f"x{i}" for i in range(1, n + 1)]
    word = seifert_word_syllables(n, p, q, l)
    relators = [
        format_syllables([((g - 1 + k) % n + 1, e) for g, e in word], names)
        for k in range(n)
    ]
    return {"generators": names, "relators": relators}


def standard_presentation_dict(n: int, p: int, q: int, l: int) -> dict:
    """The (n+2)-generator presentation <y1..yn, y, h | [yi,h], [y,h],
    yi^p h^q, y^l h^(l-1), y1..yn y h>, in reduced form."""
    names = [f"y{i}" for i in range(1, n + 1)] + ["y", "h"]
    h = n + 2

    def comm(g: int) -> list[tuple[int, int]]:
        return [(g, -1), (h, -1), (g, 1), (h, 1)]

    rels = [comm(i) for i in range(1, n + 2)]
    rels += [[(i, p), (h, q)] for i in range(1, n + 1)]
    rels.append([(n + 1, l), (h, l - 1)] if l > 1 else [(n + 1, 1)])
    rels.append([(i, 1) for i in range(1, n + 2)] + [(h, 1)])
    return {"generators": names, "relators": [format_syllables(r, names) for r in rels]}


def _seifert_op(kind: str, size: int, rng: random.Random, stratum: int) -> dict:
    if kind in ("present", "tietze"):
        n = 2 + stratum % 2
        p, q = _coprime_pq(rng, 13)
        l = max(size, 2 if n == 2 else 1)
    else:
        n = size
        p, q = _coprime_pq(rng, 13)
        l = max(1 + stratum % 3, 2 if n == 2 else 1)
    words = ["homology", kind.split("-")[1]] if kind.startswith("homology") else [kind]
    return {"kind": kind, "params": [n, p, q, l], "argv": ["--json", *words, str(n), str(p), str(q), str(l)]}


def glued_slots(n: int, p: int, q: int, l: int) -> int:
    """n * (2a + b + c) of the diagram for (n, p, q, l); both knot formulas
    give 2a + b + c = nql + p - 2q."""
    return n * (n * q * l + p - 2 * q)


def _dunwoody_op(target: int, rng: random.Random) -> dict:
    """The largest n whose diagram has at most `target` glued slots, with
    p, q, l drawn by the seed."""
    p, q = _coprime_pq(rng, 13, qmax=3)
    l = rng.randint(1, 3)
    n = 2
    while glued_slots(n + 1, p, q, l) <= target:
        n += 1
    if n == 2:
        l = max(l, 2)
    return {
        "kind": "dunwoody-check",
        "params": [n, p, q, l],
        "argv": ["--json", "dunwoody", "check", str(n), str(p), str(q), str(l)],
    }


KNOT_FAMILIES = ("single", "aligned", "crossed", "twisted")


def knot_params(family: str, size: int, rng: random.Random) -> tuple[int, int, int, int]:
    """K(a, b, c, r) with a + b + c at most size and within size/64 of it,
    in a supported twist family and meeting its coprimality condition.
    Each shape makes the move-by-move reduction take about size/2 moves,
    so cost follows size; the seed draws where in the last 1/64 it lies."""
    spread = max(4, size // 64)
    if family == "single":  # residue a, b = 0: L(c, a), gcd(c, a) = 1
        c = 2  # a/c moves, so c stays 2
        a = size - c - rng.randint(0, spread)
        if a % 2 == 0:
            a -= 1
        return a, 0, c, a
    if family == "aligned":  # residue a: L(b+c, a+b); c = a+1 keeps gcd 1
        b = rng.randint(1, spread)
        a = (size - b - 1) // 2
        return a, b, a + 1, a
    if family == "crossed":  # residue a+c with a = 1: L(b-c, 1)
        d = rng.randint(1, spread)
        c = (size - 1 - d) // 2
        return 1, c + d, c, 1 + c
    # twisted, residue a+b+c: L(b+c, a+c); b = a+1 keeps gcd 1
    c = rng.randint(1, spread)
    a = (size - c - 1) // 2
    return a, a + 1, c, a + (a + 1) + c


def _knot_op(size: int, rng: random.Random, stratum: int) -> dict:
    family = KNOT_FAMILIES[stratum % len(KNOT_FAMILIES)]
    a, b, c, r = knot_params(family, size, rng)
    return {
        "kind": "knot-reduce",
        "family": family,
        "params": [a, b, c, r],
        "argv": ["--json", "knot", "reduce", str(a), str(b), str(c), str(r)],
    }


def _alexander_op(g: int, rng: random.Random) -> dict:
    """A deficiency-one presentation: the cyclic presentation of
    (g, p, 1, l) with one relator dropped. The alternative drops another
    relator; by the cyclic symmetry both give the same polynomial."""
    p = rng.randint(2, 7)
    l = 2 if g == 2 else 1
    full = cyclic_presentation_dict(g, p, 1, l)
    drop = rng.randrange(g)
    alt = (drop + rng.randint(1, g - 1)) % g

    def without(k: int) -> dict:
        rels = [r for i, r in enumerate(full["relators"]) if i != k]
        return {"generators": full["generators"], "relators": rels}

    return {
        "kind": "alexander",
        "params": [g, p, 1, l],
        "drop": [drop, alt],
        "presentation": without(drop),
        "alt_presentation": without(alt),
    }


def point_query_ops(seed: int, pass_index: int = 0) -> list[dict]:
    """OPS_PER_KIND queries of each kind, sizes spread log-uniformly up to
    the kind's ceiling, in an order drawn for the pass. Every pass has the
    same sizes in the same slots; the other parameters are drawn for the
    pass."""
    rng = pass_rng(seed, pass_index)
    ops: list[dict] = []
    for kind in POINT_KINDS:
        lo, hi = CEILINGS[kind]
        if kind == "alexander":  # integer sizes lo..hi, each with its log-uniform weight
            sizes = [int(x) for x in _log_quantiles(lo, hi + 1, OPS_PER_KIND)]
        else:
            sizes = [round(x) for x in _log_quantiles(lo, hi, OPS_PER_KIND)]
        for stratum, size in enumerate(sizes):
            if kind == "knot-reduce":
                op = _knot_op(size, rng, stratum)
            elif kind == "dunwoody-check":
                op = _dunwoody_op(size, rng)
            elif kind == "alexander":
                op = _alexander_op(size, rng)
            else:
                op = _seifert_op(kind, size, rng, stratum)
            op["size"] = size
            op["slot"] = op["id"] = len(ops)
            ops.append(op)
    rng.shuffle(ops)
    return ops


# -- hom-search -----------------------------------------------------------------

HOM_POINTS = ((2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1))
HOM_DEGREES = (3, 4, 5)
# (4,3,2,1) -> S5 takes minutes on the seed code, so it is left out.
HOM_EXCLUDED = (((4, 3, 2, 1), 5),)
# Above 120^5 (S5, five generators), so no search is refused.
HOM_BUDGET = 10**12


def symmetric_group(m: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(m))]


def hom_search_ops(seed: int, pass_index: int = 0) -> list[dict]:
    """One op per (point, target S_m, presentation form): 22 searches, in
    an order drawn for the pass. The points are fixed, so only the order
    changes from pass to pass."""
    ops = []
    for point in HOM_POINTS:
        for m in HOM_DEGREES:
            if (point, m) in HOM_EXCLUDED:
                continue
            for form in ("cyclic", "standard"):
                build = cyclic_presentation_dict if form == "cyclic" else standard_presentation_dict
                ops.append({
                    "slot": len(ops),
                    "id": len(ops),
                    "kind": "hom-search",
                    "point": list(point),
                    "degree": m,
                    "form": form,
                    "presentation": build(*point),
                })
    pass_rng(seed, pass_index).shuffle(ops)
    return ops


def generate(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The ops of one pass of a seeded run, in the order they run."""
    if workload == "grid-sweep":
        return grid_sweep_ops(seed, pass_index)
    if workload == "point-queries":
        return point_query_ops(seed, pass_index)
    if workload == "hom-search":
        return hom_search_ops(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")


# -- validity -------------------------------------------------------------------


def knot_problem(a: int, b: int, c: int, r: int) -> str | None:
    """Why K(a, b, c, r) is outside the supported families, or None."""
    if min(a, b, c) < 0 or a + b + c == 0:
        return "bad strand counts"
    m = 2 * a + b + c
    t = r % m
    if t == a % m:
        ok = gcd(b + c, a + b) == 1
    elif a > 0 and t == (a + c) % m:
        ok = gcd(a, abs(b - c)) == 1
    elif t == (a + b + c) % m:
        ok = gcd(b + c, a + c) == 1
    else:
        return f"twist {t} mod {m} is in no supported family"
    return None if ok else "family coprimality condition fails"


def measured_size(op: dict) -> int:
    """The size named in SIZE_OF, computed from the op's parameters."""
    kind = op["kind"]
    if kind == "knot-reduce":
        return sum(op["params"][:3])
    n, p, q, l = op["params"]
    if kind in ("present", "tietze"):
        return l
    if kind == "dunwoody-check":
        return glued_slots(n, p, q, l)
    return n


def op_problem(op: dict) -> str | None:
    """Why a generated op is invalid, or None."""
    kind = op["kind"]
    if kind in ("verify-all", "hom-search"):
        return None
    hi = CEILINGS[kind][1]
    measured = measured_size(op)
    if measured > hi:
        return f"{SIZE_OF[kind]} = {measured} above the ceiling {hi}"
    if kind == "knot-reduce":
        return knot_problem(*op["params"])
    n, p, q, l = op["params"]
    if n < 2 or not 1 <= q < p or gcd(p, q) != 1 or l < (2 if n == 2 else 1):
        return f"invalid Seifert parameters {op['params']}"
    return None
