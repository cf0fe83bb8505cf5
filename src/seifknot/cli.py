"""Command line front end.

Every subcommand prints a human-readable summary by default and a stable
JSON document with --json (no timings or other volatile fields, so output
is byte-for-byte reproducible). Exit status: 0 on success, 1 when inputs
are rejected or a verification fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .dunwoody import DiagramParams, GluedDiagram, check_seifert_diagram
from .foxcalc import alexander_polynomial, example_knot_presentation
from .homology import cokernel, first_homology
from .knots11 import (
    KnotParams,
    _one_step_moves,
    knot_from_seifert,
    lens_closed_form,
    lens_name,
    reduce_to_lens,
)
from .presentations import (
    Presentation,
    seifert_cyclic_presentation,
    standard_seifert_presentation,
    tietze_witnesses,
)
from .verify import DEFAULT_BUDGET, GATE_GRID, run_all


def _emit(args: argparse.Namespace, data: dict[str, Any], human: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(human)


def _load_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
                raise ValueError(f"matrix entry {json.dumps(x)} is not an integer")
    return rows


def _group_payload(group) -> dict[str, Any]:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def _group_line(group) -> str:
    order = group.order()
    size = "infinite" if order is None else f"order {order}"
    return f"{group} ({size})"


# Largest presentations `present`, `tietze` and `homology` build. The
# cyclic presentation has n relators of n*l syllables each, the standard
# one at most 7n + 8 syllables in all; its relation matrix is n x n
# (cyclic) or (2n + 3) x (n + 2) (standard). At the syllable cap a command
# takes about a second, at the cell cap about 10 s (2-vCPU Xeon).
MAX_RELATOR_SYLLABLES = 300_000
MAX_MATRIX_CELLS = 200_000

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


def _check_presentation_size(args: argparse.Namespace, forms: Sequence[str]) -> None:
    n, l = args.n, args.l
    syllables = sum(n * n * l if form == "cyclic" else 7 * n + 8 for form in forms)
    if syllables > MAX_RELATOR_SYLLABLES:
        raise ValueError(
            f"presentation too large: {syllables} relator syllables exceed the "
            f"cap of {MAX_RELATOR_SYLLABLES}"
        )


def _check_matrix_cells(args: argparse.Namespace) -> None:
    n = args.n
    rows, cols = (n, n) if args.source == "cyclic" else (2 * n + 3, n + 2)
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(
            f"relation matrix too large: {rows} x {cols} = {rows * cols} cells "
            f"exceed the cap of {MAX_MATRIX_CELLS}"
        )


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
        group = cokernel(rows, len(rows[0]))
        label = "cokernel"
    else:
        _check_presentation_size(args, (args.source,))
        _check_matrix_cells(args)
        build = (
            seifert_cyclic_presentation
            if args.source == "cyclic"
            else standard_seifert_presentation
        )
        group = first_homology(build(args.n, args.p, args.q, args.l))
        label = "H1"
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
    if total > MAX_TRACE_MOVES:
        raise ValueError(
            f"trace too long: {total} moves exceed the cap of {MAX_TRACE_MOVES}; "
            "--runs prints it in at most four runs"
        )
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
    if slots > MAX_GLUED_SLOTS:
        raise ValueError(
            f"diagram too large: {slots} glued slots n(2a+b+c) exceed the "
            f"cap of {MAX_GLUED_SLOTS}"
        )


def cmd_dunwoody(args: argparse.Namespace) -> int:
    if args.action == "check":
        # the knot of (n, p, q, l) has 2a + b + c = nql + p - 2q strands
        _check_glued_slots(args.n, args.n * args.q * args.l + args.p - 2 * args.q)
        diagram, relators_match = check_seifert_diagram(args.n, args.p, args.q, args.l)
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
        if letters > MAX_RELATOR_LETTERS:
            raise ValueError(
                f"presentation too large: {letters} relator letters exceed the "
                f"cap of {MAX_RELATOR_LETTERS}"
            )
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
    if args.json:
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": all_passed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"{flag} {r.name} ({r.seconds:.2f}s): {r.detail}")
        print(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
            + ("" if all_passed else " (failure)")
        )
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
