"""Command line front end.

Every subcommand prints a human-readable summary by default and a stable
JSON document with --json (no timings or other volatile fields, so output
is byte-for-byte reproducible). Exit status: 0 on success, 1 when inputs
are rejected or a verification fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Sequence

from .dunwoody import DiagramParams, GluedDiagram, check_seifert_diagram
from .foxcalc import alexander_polynomial, example_knot_presentation
from .freegroup import seifert_word
from .homology import cokernel, cyclic_h1, standard_h1
from .knots11 import (
    KnotParams,
    _one_step_moves,
    knot_from_seifert,
    lens_closed_form,
    lens_name,
    reduce_to_lens,
)
from .presentations import (
    DEFAULT_BUDGET,
    Presentation,
    seifert_cyclic_presentation,
    standard_seifert_presentation,
    tietze_witnesses,
    validate_seifert_params,
)
from .verify import GATE_GRID, run_all


def _emit(args: argparse.Namespace, data: dict[str, Any], human: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(human)


# Most levels of JSON nesting a command reads (a matrix or a presentation
# needs two). The parser's own recursion limit differs between Python
# versions, so it alone would not give one answer.
MAX_JSON_DEPTH = 100


def _load_json(path: str) -> Any:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    # the lists and objects at each level in turn, without recursion
    level = [data] if isinstance(data, (list, dict)) else []
    for _ in range(MAX_JSON_DEPTH):
        level = [
            y for x in level for y in (x.values() if isinstance(x, dict) else x)
            if isinstance(y, (list, dict))
        ]
    if level:
        raise ValueError("JSON nested too deeply")
    return data


# Most characters of a rejected matrix entry that an error message quotes
MAX_ENTRY_ECHO = 40


def _load_int_matrix(path: str) -> list[list[int]]:
    """A non-empty rectangular JSON list of rows of integers; anything
    else (floats, booleans, strings, ragged rows) is rejected, not coerced."""
    rows = _load_json(path)
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) for row in rows
    ):
        raise ValueError("expected a non-empty JSON list of matrix rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    for row in rows:
        for x in row:
            if type(x) is not int:  # bool is a subclass of int
                text = json.dumps(x)
                if len(text) > MAX_ENTRY_ECHO:
                    text = text[: MAX_ENTRY_ECHO - 3] + "..."
                raise ValueError(f"matrix entry {text} is not an integer")
    return rows


def _group_payload(group) -> dict[str, Any]:
    return {"rank": group.rank, "torsion": list(group.torsion)}


# Orders of more bits are written as the product of the invariant factors:
# Python writes no int of over 4 300 decimal digits, and `homology
# standard n 3 1 1`, of order 3^(n-1)(n-3), passes that at n = 9 006.
MAX_ORDER_BITS = 10_000


def _check_writable(group, label: str) -> None:
    """Refuse a group with an invariant factor of more decimal digits than
    Python writes, in JSON and text alike (4 300 by default, 0 for none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and group.torsion and group.torsion[-1] >= 10**limit:
        raise ValueError(
            f"{label} too large to write: an invariant factor of "
            f"{group.torsion[-1].bit_length()} bits has over {limit} decimal digits"
        )


def _group_line(group) -> str:
    order = group.order()
    if order is None:
        size = "infinite"
    elif order.bit_length() <= MAX_ORDER_BITS:
        size = f"order {order}"
    else:
        runs = [(t, len(list(run))) for t, run in itertools.groupby(group.torsion)]
        size = "order " + " * ".join(f"{t}^{k}" if k > 1 else f"{t}" for t, k in runs)
    return f"{group} ({size})"


# Largest presentations `present`, `tietze` and `homology` read. The
# cyclic presentation has n relators of n*l syllables each, the standard
# one at most 7n + 8 syllables in all; `homology cyclic` reads only the
# defining word but is held to the presentation's n*n*l. At the cap a
# command takes about a second (2-vCPU Xeon).
MAX_RELATOR_SYLLABLES = 300_000

# Most cells x bits of the largest entry (at least 1) `homology matrix`
# reduces. Its dense Smith form lets entries grow, so time grows steeply
# with size and entry size alike: at the cap a 100 x 100 matrix of
# entries in [-1, 1] takes about a second, and 120 x 120 in [-9, 9],
# 57 600 over it, took 9 s (2-vCPU Xeon).
MAX_MATRIX_BITS = 10_000

# Most relator letters `alexander --presentation` differentiates. A Fox
# derivative costs time linear in its relator's letters, but the minors
# cost about the square of the entries' degrees, which the letters bound;
# at the cap a presentation on up to six generators takes a few seconds
# (2-vCPU Xeon). The largest presentation the benchmark sends has 91.
MAX_RELATOR_LETTERS = 1_000

# Most moves `knot reduce` lists one by one; `knot reduce --runs` prints
# any reduction in at most four runs. At the cap the command takes under a
# second and prints 28 MB of JSON (2-vCPU Xeon).
MAX_TRACE_MOVES = 300_000

# One move as json.dumps(..., indent=2) writes it in the top-level "moves"
# list (move labels are plain identifiers, so need no escaping). The
# pure-Python indenting encoder takes several times as long on a long
# trace, and writing move by move keeps no second copy of the output.
_MOVE_JSON = (
    '    [\n      "{}",\n      [\n        {},\n        {},\n        {},\n        {}\n'
    "      ]\n    ]"
)


def _refuse_over(size: int, cap: int, what: str, hint: str = "") -> None:
    """Refuse an input whose size exceeds a cap before any work; `what`
    names the input and its size."""
    if size > cap:
        raise ValueError(f"{what} exceed the cap of {cap}{hint}")


def _check_presentation_size(args: argparse.Namespace, forms: Sequence[str]) -> None:
    validate_seifert_params(args.n, args.p, args.q, args.l)  # the real fault first
    n, l = args.n, args.l
    syllables = sum(n * n * l if form == "cyclic" else 7 * n + 8 for form in forms)
    what = f"presentation too large: {syllables} relator syllables"
    _refuse_over(syllables, MAX_RELATOR_SYLLABLES, what)


# -- subcommand handlers -------------------------------------------------------


def cmd_present(args: argparse.Namespace) -> int:
    _check_presentation_size(
        args, ("cyclic", "standard") if args.form == "both" else (args.form,)
    )
    params = (args.n, args.p, args.q, args.l)
    data: dict[str, Any] = {}
    lines = []
    if args.form in ("cyclic", "both"):
        pres = seifert_cyclic_presentation(*params)
        data["cyclic"] = pres.to_dict()
        lines.append(f"cyclic:   {pres}")
    if args.form in ("standard", "both"):
        pres = standard_seifert_presentation(*params)
        data["standard"] = pres.to_dict()
        lines.append(f"standard: {pres}")
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_tietze(args: argparse.Namespace) -> int:
    _check_presentation_size(args, ("cyclic",))
    witnesses = tietze_witnesses(args.n, args.p, args.q, args.l)
    rows = []
    lines = []
    all_equal = True
    for label, lhs, rhs in witnesses:
        equal = lhs == rhs
        all_equal &= equal
        rows.append(
            {"label": label, "left": str(lhs), "right": str(rhs), "equal": equal}
        )
        status = "ok" if equal else "MISMATCH"
        lines.append(f"{label}: {lhs} = {rhs}  [{status}]")
    lines.append(
        f"{'all' if all_equal else 'NOT all'} {len(witnesses)} identities hold"
    )
    _emit(args, {"witnesses": rows, "all_equal": all_equal}, "\n".join(lines))
    return 0 if all_equal else 1


def cmd_homology(args: argparse.Namespace) -> int:
    if args.source == "matrix":
        rows = _load_int_matrix(args.file)
        bits = max([1] + [x.bit_length() for row in rows for x in row])
        size = len(rows) * len(rows[0]) * bits
        what = f"matrix too large: {len(rows)} x {len(rows[0])} cells x {bits} bits = {size}"
        _refuse_over(size, MAX_MATRIX_BITS, what)
        group = cokernel(rows, len(rows[0]))
        label = "cokernel"
    else:
        _check_presentation_size(args, (args.source,))
        params = (args.n, args.p, args.q, args.l)
        if args.source == "cyclic":
            group = cyclic_h1(seifert_word(*params))
        else:
            group = standard_h1(standard_seifert_presentation(*params))
        label = "H1"
    _check_writable(group, label)
    _emit(args, _group_payload(group), f"{label} = {_group_line(group)}")
    return 0


def _knot_payload(k: KnotParams) -> list[int]:
    return [k.a, k.b, k.c, k.r]


def cmd_knot(args: argparse.Namespace) -> int:
    if args.action == "from-seifert":
        cover = knot_from_seifert(args.n, args.p, args.q, args.l)
        data = {
            "knot": _knot_payload(cover.knot),
            "ambient": list(cover.ambient),
            "ambient_name": lens_name(cover.ambient),
            "sheets": cover.sheets,
            "shift": cover.shift,
        }
        human = (
            f"{cover.knot} in {lens_name(cover.ambient)}; "
            f"{cover.sheets}-fold cyclic branched cover, shift {cover.shift}"
        )
        _emit(args, data, human)
        return 0
    k = KnotParams(args.a, args.b, args.c, args.r)
    if args.action == "ambient":
        lens = lens_closed_form(k)
        _emit(
            args,
            {"knot": _knot_payload(k), "lens": list(lens), "name": lens_name(lens)},
            f"{k} lies in {lens_name(lens)}",
        )
        return 0
    lens, trace = reduce_to_lens(k)
    data: dict[str, Any] = {
        "start": _knot_payload(k),
        "lens": list(lens),
        "name": lens_name(lens),
    }
    if args.runs:
        data["runs"] = [[label, runs, _knot_payload(state)] for label, runs, state in trace]
        lines = [f"{label:>5} x{runs}  {state}" for label, runs, state in trace]
        _emit(args, data, "\n".join([f"start  {k}", *lines, f"result {lens_name(lens)}"]))
        return 0
    total = sum(runs for _, runs, _ in trace)
    hint = "; --runs prints it in at most four runs"
    _refuse_over(total, MAX_TRACE_MOVES, f"trace too long: {total} moves", hint)
    moves = _one_step_moves(trace)
    if args.json:
        data["moves"] = None
        head, tail = json.dumps(data, indent=2, sort_keys=True).split('"moves": null')
        write = sys.stdout.write
        write(head + '"moves": [')
        for i, (label, state) in enumerate(moves):
            write((",\n" if i else "\n") + _MOVE_JSON.format(label, *state))
        write(("\n  ]" if total else "]") + tail + "\n")
        return 0
    lines = [f"{label:>5}  K({a},{b},{c},{r})" for label, (a, b, c, r) in moves]
    print("\n".join([f"start  {k}", *lines, f"result {lens_name(lens)}"]))
    return 0


def _edge_classes_payload(diagram: GluedDiagram) -> list[list[list[Any]]]:
    return [
        [[list(edge), 1 - 2 * parity] for edge, parity in cls]
        for cls in diagram.edge_classes
    ]


def _edge_classes_lines(diagram: GluedDiagram) -> list[str]:
    lines = []
    for idx, cls in enumerate(diagram.edge_classes):
        members = " ".join(
            f"{'+' if parity == 0 else '-'}{kind}{i}.{j}"
            for (kind, i, j), parity in cls
        )
        lines.append(f"class {idx + 1}: {members}")
    return lines


# Largest diagram `dunwoody` builds, in glued slots n(2a + b + c); a build
# at the cap takes seconds and a few hundred MB.
MAX_GLUED_SLOTS = 1_000_000


def _check_glued_slots(n: int, cycle_length: int) -> None:
    slots = n * cycle_length
    _refuse_over(slots, MAX_GLUED_SLOTS, f"diagram too large: {slots} glued slots n(2a+b+c)")


def cmd_dunwoody(args: argparse.Namespace) -> int:
    if args.action == "check":
        cover = knot_from_seifert(args.n, args.p, args.q, args.l)
        _check_glued_slots(args.n, cover.knot.period)
        word = seifert_word(args.n, args.p, args.q, args.l)
        diagram, relators_match = check_seifert_diagram(cover, word)
    else:
        _check_glued_slots(args.n, 2 * args.a + args.b + args.c)
        diagram = GluedDiagram(
            DiagramParams(args.a, args.b, args.c, args.n, args.r, args.s)
        )
    params, counts = diagram.params, diagram.counts()
    criterion = diagram.satisfies_cover_criterion()
    data: dict[str, Any] = {
        "params": [params.a, params.b, params.c, params.n, params.r, params.s],
        "counts": list(counts),
        "criterion": criterion,
    }
    lines = [
        f"gluing data {params}",
        f"counts (vertices, edge classes, faces, cells) = {counts}",
        f"one-vertex / n-edge criterion: {'yes' if criterion else 'no'}",
    ]
    ok = True
    if args.action == "check":
        ok = relators_match  # false too when the criterion fails
        data["relators_match"] = relators_match
        lines.append(
            f"relators match cyclic presentation: {'yes' if relators_match else 'no'}"
        )
    elif criterion:
        words = [str(w) for w in diagram.read_off_words()]
        data["relators"] = words
        lines.append("read-off relators: " + ", ".join(words))
    if args.edges:
        data["edge_classes"] = _edge_classes_payload(diagram)
        lines.extend(_edge_classes_lines(diagram))
    _emit(args, data, "\n".join(lines))
    return 0 if ok else 1


def cmd_alexander(args: argparse.Namespace) -> int:
    if args.example:
        pres = example_knot_presentation()
    else:
        pres = Presentation.from_dict(_load_json(args.presentation))
        letters = sum(len(r) for r in pres.relators)
        what = f"presentation too large: {letters} relator letters"
        _refuse_over(letters, MAX_RELATOR_LETTERS, what)
    delta = alexander_polynomial(pres)
    det_text = str(abs(delta(-1)))
    data = {
        "alexander": str(delta),
        "terms": [[e, c] for e, c in delta.terms()],
        "determinant": det_text,
    }
    human = f"Delta(t) = {delta}\ndeterminant |Delta(-1)| = {det_text}"
    _emit(args, data, human)
    return 0


def cmd_verify_all(args: argparse.Namespace) -> int:
    results = run_all(
        n_max=args.nmax,
        p_max=args.pmax,
        l_max=args.lmax,
        seed=args.seed,
        budget=args.budget,
    )
    all_passed = all(r.passed for r in results)
    data = {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all_passed,
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s): {r.detail}"
        for r in results
    ]
    lines.append(
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        + ("" if all_passed else " (failure)")
    )
    _emit(args, data, "\n".join(lines))
    return 0 if all_passed else 1


# -- parser --------------------------------------------------------------------


def _add_seifert_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("n", type=int, help="number of cyclic symmetries")
    sub.add_argument("p", type=int, help="exceptional fiber order")
    sub.add_argument("q", type=int, help="exceptional fiber twist, coprime to p")
    sub.add_argument("l", type=int, help="extra fiber parameter")


def _add_knot_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("a", type=int, help="outer band strands")
    sub.add_argument("b", type=int, help="middle band strands")
    sub.add_argument("c", type=int, help="crossing strands")
    sub.add_argument("r", type=int, help="twist (mod 2a+b+c)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifknot",
        description=(
            "Exact computations relating Seifert manifolds, cyclic "
            "presentations, (1,1)-knots in lens spaces, and glued "
            "sphere-tessellation diagrams."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit stable JSON instead of text"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized checks"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="enumeration budget for homomorphism counting",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    present = commands.add_parser(
        "present", help="print the cyclic and standard presentations"
    )
    _add_seifert_args(present)
    present.add_argument(
        "--form", choices=("cyclic", "standard", "both"), default="both"
    )
    present.set_defaults(func=cmd_present)

    tietze = commands.add_parser(
        "tietze", help="verify the presentation-equivalence witnesses"
    )
    _add_seifert_args(tietze)
    tietze.set_defaults(func=cmd_tietze)

    homology = commands.add_parser("homology", help="abelianization invariants")
    hsub = homology.add_subparsers(dest="source", required=True)
    for source in ("cyclic", "standard"):
        h = hsub.add_parser(source, help=f"H1 from the {source} presentation")
        _add_seifert_args(h)
    hmatrix = hsub.add_parser("matrix", help="cokernel of a JSON integer matrix")
    hmatrix.add_argument("file", help="path to a JSON list of rows, or - for stdin")
    homology.set_defaults(func=cmd_homology)

    knot = commands.add_parser("knot", help="(1,1)-knot parameter operations")
    ksub = knot.add_subparsers(dest="action", required=True)
    kfrom = ksub.add_parser(
        "from-seifert", help="knot and ambient space for Seifert parameters"
    )
    _add_seifert_args(kfrom)
    kreduce = ksub.add_parser("reduce", help="reduce a diagram move by move")
    _add_knot_args(kreduce)
    kreduce.add_argument(
        "--runs",
        action="store_true",
        help="print runs of equal moves (label, multiplicity, state after the run)",
    )
    kambient = ksub.add_parser("ambient", help="closed-form ambient lens space")
    _add_knot_args(kambient)
    knot.set_defaults(func=cmd_knot)

    dunwoody = commands.add_parser(
        "dunwoody", help="build and check glued tessellation diagrams"
    )
    dsub = dunwoody.add_subparsers(dest="action", required=True)
    dcheck = dsub.add_parser(
        "check", help="full diagram check for Seifert parameters"
    )
    _add_seifert_args(dcheck)
    dcheck.add_argument("--edges", action="store_true", help="list edge classes")
    draw = dsub.add_parser("raw", help="glue an arbitrary diagram")
    draw.add_argument("a", type=int)
    draw.add_argument("b", type=int)
    draw.add_argument("c", type=int)
    draw.add_argument("n", type=int)
    draw.add_argument("r", type=int)
    draw.add_argument("s", type=int, choices=(0, 1))
    draw.add_argument("--edges", action="store_true", help="list edge classes")
    dunwoody.set_defaults(func=cmd_dunwoody)

    alexander = commands.add_parser(
        "alexander", help="Alexander polynomial of a deficiency-one presentation"
    )
    source = alexander.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--example", action="store_true", help="use the built-in knot example"
    )
    source.add_argument(
        "--presentation",
        metavar="FILE",
        help="JSON file with generators and relators, or - for stdin",
    )
    alexander.set_defaults(func=cmd_alexander)

    verify = commands.add_parser("verify-all", help="run every built-in check")
    for flag, default in zip(("--nmax", "--pmax", "--lmax"), GATE_GRID):
        verify.add_argument(flag, type=int, default=default)
    verify.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
