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
from typing import Any, Callable, Sequence

# Lazy modules (see the package docstring): each is compiled and run when a
# handler first reads it, so a command runs only the layers it needs, and
# names are read through them at each call.
from . import dunwoody, foxcalc, freegroup, homology, knots11, presentations, verify


def _emit(args: argparse.Namespace, data: dict[str, Any], text: Callable[[], str]) -> None:
    """Print data as JSON with --json, else the text that text() writes
    from it: the text is built only when it is printed."""
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text())


# Most levels of JSON nesting a command reads (a matrix or a presentation
# needs two). The parser's own recursion limit differs between Python
# versions, so it alone would not give one answer.
MAX_JSON_DEPTH = 100


def _load_json(path: str) -> Any:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer int() refuses; parse again to name it
        data = json.loads(text, parse_int=lambda digits: freegroup.read_int(digits, "JSON integer"))
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
                raise ValueError(f"matrix entry {freegroup.clip(json.dumps(x))} is not an integer")
    return rows


def _group_payload(group) -> dict[str, Any]:
    return {"rank": group.rank, "torsion": list(group.torsion)}


# Orders of more bits are written as the product of the invariant factors:
# Python writes no int of over 4 300 decimal digits, and `homology
# standard n 3 1 1`, of order 3^(n-1)(n-3), passes that at n = 9 006.
MAX_ORDER_BITS = 10_000


def _writable(x: int) -> bool:
    """Whether Python writes x in decimal: it writes no int of more digits
    than sys.get_int_max_str_digits() (4 300 by default, 0 for no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or abs(x) < 10**limit


def _check_writable(group, label: str) -> None:
    """Refuse a group with an invariant factor of more decimal digits than
    Python writes, in JSON and text alike."""
    if group.torsion and not _writable(group.torsion[-1]):
        raise ValueError(
            f"{label} too large to write: an invariant factor of "
            f"{group.torsion[-1].bit_length()} bits has over "
            f"{sys.get_int_max_str_digits()} decimal digits"
        )


def _group_line(group) -> str:
    # factors whose bit lengths, less one each, sum to MAX_ORDER_BITS or more
    # multiply to an order of more bits, which is written as their product
    # without multiplying them out; under that sum it has under twice as many
    if group.rank:
        size = "infinite"
    elif (
        sum(t.bit_length() - 1 for t in group.torsion) < MAX_ORDER_BITS
        and (order := group.order()).bit_length() <= MAX_ORDER_BITS
    ):
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
# any reduction in at most four runs. At the cap `--json` takes about
# 0.2 s in-process and prints 28 MB, the text listing 0.15 s and 8 MB
# (2-vCPU Xeon).
MAX_TRACE_MOVES = 300_000

# One move as json.dumps(..., indent=2) writes it in the top-level "moves"
# list (move labels are plain identifiers, so need no escaping), and as the
# text listing writes it. The pure-Python indenting encoder takes several
# times as long on a long trace; mapping a template over the moves of
# `one_step_moves` writes the 34 515 moves of `knot reduce 34514 34515 971
# 70000` in about 22 ms in-process, and their text lines in 18 ms (2-vCPU
# Xeon). One write per move keeps no second copy of the output: joining
# moves into larger writes is faster still, but holds more of the output in
# memory at once.
_MOVE_JSON = (
    '    [\n      "%s",\n      [\n        %d,\n        %d,\n        %d,\n        %d\n'
    "      ]\n    ]"
)
_MOVE_TEXT = "%5s  K(%d,%d,%d,%d)\n"


def _refuse_over(size: int, cap: int, what: str, hint: str = "") -> None:
    """Refuse an input whose size exceeds a cap before any work; `what`
    names the input, with {} where its size goes. A size of more digits
    than Python writes is given as a power of two below it."""
    if size > cap:
        count = str(size) if _writable(size) else f"at least 2^{size.bit_length() - 1}"
        raise ValueError(f"{what.format(count)} exceed the cap of {cap}{hint}")


def _check_presentation_size(args: argparse.Namespace, forms: Sequence[str]) -> None:
    presentations.validate_seifert_params(args.n, args.p, args.q, args.l)  # the real fault first
    n, l = args.n, args.l
    syllables = sum(n * n * l if form == "cyclic" else 7 * n + 8 for form in forms)
    _refuse_over(syllables, MAX_RELATOR_SYLLABLES, "presentation too large: {} relator syllables")


# -- subcommand handlers -------------------------------------------------------


def cmd_present(args: argparse.Namespace) -> int:
    _check_presentation_size(
        args, ("cyclic", "standard") if args.form == "both" else (args.form,)
    )
    params = (args.n, args.p, args.q, args.l)
    data: dict[str, Any] = {}
    if args.form in ("cyclic", "both"):
        data["cyclic"] = presentations.seifert_cyclic_presentation(*params).to_dict()
    if args.form in ("standard", "both"):
        data["standard"] = presentations.standard_seifert_presentation(*params).to_dict()
    _emit(args, data, lambda: "\n".join(
        f"{form + ':':10}< {', '.join(pres['generators'])} | {', '.join(pres['relators'])} >"
        for form, pres in data.items()
    ))
    return 0


def cmd_tietze(args: argparse.Namespace) -> int:
    _check_presentation_size(args, ("cyclic",))
    rows = [
        {"label": label, "left": str(lhs), "right": str(rhs), "equal": lhs == rhs}
        for label, lhs, rhs in presentations.tietze_witnesses(args.n, args.p, args.q, args.l)
    ]
    all_equal = all(row["equal"] for row in rows)
    _emit(args, {"witnesses": rows, "all_equal": all_equal}, lambda: "\n".join([
        *(f"{row['label']}: {row['left']} = {row['right']}  "
          f"[{'ok' if row['equal'] else 'MISMATCH'}]" for row in rows),
        f"{'all' if all_equal else 'NOT all'} {len(rows)} identities hold",
    ]))
    return 0 if all_equal else 1


def cmd_homology(args: argparse.Namespace) -> int:
    if args.source == "matrix":
        rows = _load_int_matrix(args.file)
        bits = max([1] + [x.bit_length() for row in rows for x in row])
        size = len(rows) * len(rows[0]) * bits
        what = f"matrix too large: {len(rows)} x {len(rows[0])} cells x {bits} bits = {{}}"
        _refuse_over(size, MAX_MATRIX_BITS, what)
        group = homology.cokernel(rows, len(rows[0]))
        label = "cokernel"
    else:
        _check_presentation_size(args, (args.source,))
        params = (args.n, args.p, args.q, args.l)
        if args.source == "cyclic":
            group = homology.cyclic_h1(freegroup.seifert_word(*params))
        else:
            group = homology.standard_h1(presentations.standard_seifert_presentation(*params))
        label = "H1"
    _check_writable(group, label)
    _emit(args, _group_payload(group), lambda: f"{label} = {_group_line(group)}")
    return 0


def _knot_payload(k: knots11.KnotParams) -> list[int]:
    return [k.a, k.b, k.c, k.r]


def cmd_knot(args: argparse.Namespace) -> int:
    if args.action == "from-seifert":
        cover = knots11.knot_from_seifert(args.n, args.p, args.q, args.l)
        data = {
            "knot": _knot_payload(cover.knot),
            "ambient": list(cover.ambient),
            "ambient_name": knots11.lens_name(cover.ambient),
            "sheets": cover.sheets,
            "shift": cover.shift,
        }
        _emit(args, data, lambda: (
            f"{cover.knot} in {data['ambient_name']}; "
            f"{cover.sheets}-fold cyclic branched cover, shift {cover.shift}"
        ))
        return 0
    k = knots11.KnotParams(args.a, args.b, args.c, args.r)
    if args.action == "ambient":
        lens = knots11.lens_closed_form(k)
        data = {"knot": _knot_payload(k), "lens": list(lens), "name": knots11.lens_name(lens)}
        _emit(args, data, lambda: f"{k} lies in {data['name']}")
        return 0
    lens, trace = knots11.reduce_to_lens(k)
    data: dict[str, Any] = {
        "start": _knot_payload(k),
        "lens": list(lens),
        "name": knots11.lens_name(lens),
    }
    if args.runs:
        data["runs"] = [[label, runs, _knot_payload(state)] for label, runs, state in trace]
        _emit(args, data, lambda: "\n".join([
            f"start  {k}",
            *(f"{label:>5} x{runs}  {state}" for label, runs, state in trace),
            f"result {data['name']}",
        ]))
        return 0
    total = sum(runs for _, runs, _ in trace)
    hint = "; --runs prints it in at most four runs"
    _refuse_over(total, MAX_TRACE_MOVES, "trace too long: {} moves", hint)
    moves = knots11.one_step_moves(trace)
    if args.json:
        data["moves"] = None
        head, tail = json.dumps(data, indent=2, sort_keys=True).split('"moves": null')
        head += '"moves": ['
        for first in itertools.islice(moves, 1):  # a separator goes before each later move
            head += "\n" + _MOVE_JSON % first
        template, tail = ",\n" + _MOVE_JSON, ("\n  ]" if total else "]") + tail + "\n"
    else:
        head, template, tail = f"start  {k}\n", _MOVE_TEXT, f"result {data['name']}\n"
    write = sys.stdout.write
    write(head)
    for move in map(template.__mod__, moves):
        write(move)
    write(tail)
    return 0


def _edge_classes_payload(diagram: dunwoody.GluedDiagram) -> list[list[list[Any]]]:
    return [
        [[list(edge), 1 - 2 * parity] for edge, parity in cls]
        for cls in diagram.edge_classes
    ]


# Largest diagram `dunwoody` builds, in glued slots n(2a + b + c). The
# gluing costs O(2a + b + c); the read-off and the edge listing cost
# O(n(2a + b + c)). At the cap, in a fresh process on a 2-vCPU Xeon:
# `--json dunwoody raw 1 1 1 250000 2 0` takes 0.11 s and 17 MiB;
# `--json dunwoody check 500 2 1 4`, which reads off and compares 500
# words of 2000 letters, 0.56 s and 86 MiB; the same raw call with
# `--edges`, which lists all 10^6 edges as 92 MB of JSON, 9-11 s and 1 GiB.
MAX_GLUED_SLOTS = 1_000_000


def _check_glued_slots(n: int, cycle_length: int) -> None:
    slots = n * cycle_length
    _refuse_over(slots, MAX_GLUED_SLOTS, "diagram too large: {} glued slots n(2a+b+c)")


def cmd_dunwoody(args: argparse.Namespace) -> int:
    if args.action == "check":
        cover = knots11.knot_from_seifert(args.n, args.p, args.q, args.l)
        _check_glued_slots(args.n, cover.knot.period)
        word = freegroup.seifert_word(args.n, args.p, args.q, args.l)
        diagram, relators_match = dunwoody.check_seifert_diagram(cover, word)
    else:
        _check_glued_slots(args.n, 2 * args.a + args.b + args.c)
        diagram = dunwoody.GluedDiagram(
            dunwoody.DiagramParams(args.a, args.b, args.c, args.n, args.r, args.s)
        )
    params, counts = diagram.params, diagram.counts()
    criterion = diagram.satisfies_cover_criterion()
    data: dict[str, Any] = {
        "params": [params.a, params.b, params.c, params.n, params.r, params.s],
        "counts": list(counts),
        "criterion": criterion,
    }
    ok = True
    if args.action == "check":
        ok = relators_match  # false too when the criterion fails
        data["relators_match"] = relators_match
    elif criterion:
        data["relators"] = [str(w) for w in diagram.read_off_words()]
    if args.edges:
        data["edge_classes"] = _edge_classes_payload(diagram)

    def text() -> str:
        lines = [
            f"gluing data {params}",
            f"counts (vertices, edge classes, faces, cells) = {counts}",
            f"one-vertex / n-edge criterion: {'yes' if criterion else 'no'}",
        ]
        if "relators_match" in data:
            lines.append(
                f"relators match cyclic presentation: {'yes' if data['relators_match'] else 'no'}"
            )
        elif "relators" in data:
            lines.append("read-off relators: " + ", ".join(data["relators"]))
        for idx, cls in enumerate(data.get("edge_classes", ()), 1):
            members = (f"{'+' if sign > 0 else '-'}{kind}{i}.{j}" for (kind, i, j), sign in cls)
            lines.append(f"class {idx}: " + " ".join(members))
        return "\n".join(lines)

    _emit(args, data, text)
    return 0 if ok else 1


def cmd_alexander(args: argparse.Namespace) -> int:
    if args.example:
        pres = foxcalc.example_knot_presentation()
    else:
        pres = presentations.Presentation.from_dict(_load_json(args.presentation))
        # len() of a word fails past sys.maxsize letters
        letters = sum(abs(e) for r in pres.relators for _, e in r.syllables)
        _refuse_over(letters, MAX_RELATOR_LETTERS, "presentation too large: {} relator letters")
    delta = foxcalc.alexander_polynomial(pres)
    data = {
        "alexander": str(delta),
        "terms": [[e, c] for e, c in delta.terms()],
        "determinant": str(abs(delta(-1))),
    }
    _emit(args, data, lambda: (
        f"Delta(t) = {data['alexander']}\ndeterminant |Delta(-1)| = {data['determinant']}"
    ))
    return 0


def cmd_verify_all(args: argparse.Namespace) -> int:
    # the parser leaves an option not given as None: reading these defaults
    # there would load the layers that define them
    n_max, p_max, l_max = (
        default if given is None else given
        for given, default in zip((args.nmax, args.pmax, args.lmax), verify.GATE_GRID)
    )
    budget = presentations.DEFAULT_BUDGET if args.budget is None else args.budget
    results = verify.run_all(
        n_max=n_max,
        p_max=p_max,
        l_max=l_max,
        seed=args.seed,
        budget=budget,
    )
    all_passed = all(r.passed for r in results)
    data = {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all_passed,
    }
    _emit(args, data, lambda: "\n".join([
        *(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s): {r.detail}"
          for r in results),
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        + ("" if all_passed else " (failure)"),
    ]))
    return 0 if all_passed else 1


# -- parser --------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """int(text), for every integer argument: a rejected value is quoted
    as argparse quotes it, but clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {freegroup.clip(text)!r}") from None


def _bit_arg(text: str) -> int:
    """0 or 1; any other integer is quoted as argparse quotes a rejected
    choice, but clipped."""
    value = _int_arg(text)
    if value not in (0, 1):
        raise argparse.ArgumentTypeError(f"invalid choice: {freegroup.clip(str(value))} (choose from 0, 1)")
    return value


def _add_seifert_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("n", type=_int_arg, help="number of cyclic symmetries")
    sub.add_argument("p", type=_int_arg, help="exceptional fiber order")
    sub.add_argument("q", type=_int_arg, help="exceptional fiber twist, coprime to p")
    sub.add_argument("l", type=_int_arg, help="extra fiber parameter")


def _add_knot_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("a", type=_int_arg, help="outer band strands")
    sub.add_argument("b", type=_int_arg, help="middle band strands")
    sub.add_argument("c", type=_int_arg, help="crossing strands")
    sub.add_argument("r", type=_int_arg, help="twist (mod 2a+b+c)")


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
        "--seed", type=_int_arg, default=0, help="seed for randomized checks"
    )
    parser.add_argument(
        "--budget",
        type=_int_arg,
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

    hcmd = commands.add_parser("homology", help="abelianization invariants")
    hsub = hcmd.add_subparsers(dest="source", required=True)
    for source in ("cyclic", "standard"):
        h = hsub.add_parser(source, help=f"H1 from the {source} presentation")
        _add_seifert_args(h)
    hmatrix = hsub.add_parser("matrix", help="cokernel of a JSON integer matrix")
    hmatrix.add_argument("file", help="path to a JSON list of rows, or - for stdin")
    hcmd.set_defaults(func=cmd_homology)

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

    dcmd = commands.add_parser(
        "dunwoody", help="build and check glued tessellation diagrams"
    )
    dsub = dcmd.add_subparsers(dest="action", required=True)
    dcheck = dsub.add_parser(
        "check", help="full diagram check for Seifert parameters"
    )
    _add_seifert_args(dcheck)
    dcheck.add_argument("--edges", action="store_true", help="list edge classes")
    draw = dsub.add_parser("raw", help="glue an arbitrary diagram")
    draw.add_argument("a", type=_int_arg)
    draw.add_argument("b", type=_int_arg)
    draw.add_argument("c", type=_int_arg)
    draw.add_argument("n", type=_int_arg)
    draw.add_argument("r", type=_int_arg)
    # `choices` names the values in the usage line; _bit_arg refuses any
    # other first, so argparse never quotes one whole
    draw.add_argument("s", type=_bit_arg, choices=(0, 1))
    draw.add_argument("--edges", action="store_true", help="list edge classes")
    dcmd.set_defaults(func=cmd_dunwoody)

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

    vcmd = commands.add_parser("verify-all", help="run every built-in check")
    for flag in ("--nmax", "--pmax", "--lmax"):
        vcmd.add_argument(flag, type=_int_arg)
    vcmd.set_defaults(func=cmd_verify_all)

    return parser


# Built by the first `main` call, not at import: building takes a few
# milliseconds, more than most commands, and parsing leaves it unchanged.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
