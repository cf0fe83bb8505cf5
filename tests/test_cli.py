import argparse
import hashlib
import io
import json
import subprocess
import sys

import pytest

from seifknot import cli, dunwoody, foxcalc, freegroup, homology, knots11, presentations, verify
from seifknot.cli import build_parser, main
from seifknot.homology import AbelianGroup
from seifknot.knots11 import KnotParams, lens_name, one_step_moves, reduce_to_lens
from seifknot.verify import GATE_GRID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_present_human(capsys):
    code, out, _ = run_cli(capsys, "present", "3", "2", "1", "1", "--form", "cyclic")
    assert code == 0
    assert "x1 x2 x3^-1" in out
    assert "standard" not in out


def test_present_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "present", "3", "2", "1", "1")
    data = json.loads(out)
    assert code == 0
    assert data["cyclic"]["relators"][0] == "x1 x2 x3^-1"
    assert data["standard"]["generators"] == ["y1", "y2", "y3", "y", "h"]


def test_invalid_parameters_exit_one(capsys):
    code, out, err = run_cli(capsys, "present", "3", "4", "2", "1")
    assert code == 1
    assert not out
    assert "error" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["present", "3", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_tietze(capsys):
    code, out, _ = run_cli(capsys, "tietze", "3", "2", "1", "1")
    assert code == 0
    assert "all 4 identities hold" in out


def test_tietze_reports_a_mismatch(capsys, monkeypatch):
    x1, x2 = freegroup.generator(3, 1), freegroup.generator(3, 2)
    monkeypatch.setattr(presentations, "tietze_witnesses", lambda *params: [("descent[1]", x1, x2)])
    code, out, _ = run_cli(capsys, "tietze", "3", "2", "1", "1")
    assert code == 1
    assert out == "descent[1]: x1 = x2  [MISMATCH]\nNOT all 1 identities hold\n"
    code, out, _ = run_cli(capsys, "--json", "tietze", "3", "2", "1", "1")
    assert code == 1
    assert json.loads(out) == {
        "witnesses": [{"label": "descent[1]", "left": "x1", "right": "x2", "equal": False}],
        "all_equal": False,
    }


@pytest.mark.parametrize("command, calls", [("present 3 2 1 1", 12), ("tietze 3 2 1 1", 8)])
def test_each_word_is_formatted_once(capsys, monkeypatch, command, calls):
    real = freegroup.format_word
    seen = []

    def counted(*args):
        seen.append(args)
        return real(*args)

    for module in (freegroup, presentations):  # every namespace that binds it
        monkeypatch.setattr(module, "format_word", counted)
    for flags in ([], ["--json"]):
        seen.clear()
        code, _, _ = run_cli(capsys, *flags, *command.split())
        assert (code, len(seen)) == (0, calls), flags


def test_homology_presentations(capsys):
    code, out, _ = run_cli(capsys, "--json", "homology", "cyclic", "3", "2", "1", "1")
    assert code == 0
    assert json.loads(out) == {"rank": 0, "torsion": [2, 2]}
    code, out, _ = run_cli(capsys, "homology", "standard", "2", "3", "2", "2")
    assert code == 0
    assert "Z/15" in out and "order 15" in out


def test_homology_writes_a_long_order_as_a_product(capsys):
    # 3^9004 * 27009 has 4301 decimal digits, more than Python writes
    code, out, err = run_cli(capsys, "homology", "standard", "9006", "3", "1", "1")
    assert (code, err) == (0, "")
    assert out.endswith(" + Z/3 + Z/27009 (order 3^9004 * 27009)\n")
    assert out.count("Z/3 +") == 9004


@pytest.mark.parametrize(
    "torsion, size",
    [
        ((2,) * 9999, f"order {2**9999}"),  # 10 000 bits
        ((2,) * 10000, "order 2^10000"),
        ((3,) * 6309, f"order {3**6309}"),  # 10 000 bits
        ((3,) * 6310, "order 3^6310"),  # 10 001 bits, though the bit lengths less one sum to 6 310
    ],
    ids=["2^9999", "2^10000", "3^6309", "3^6310"],
)
def test_an_order_of_over_max_order_bits_is_written_as_a_product(torsion, size):
    assert cli._group_line(AbelianGroup(0, torsion)).endswith(f" ({size})")


def test_a_long_order_is_written_without_multiplying(monkeypatch):
    monkeypatch.setattr(AbelianGroup, "order", pytest.fail)
    assert cli._group_line(AbelianGroup(0, (3,) * 40000)).endswith(" (order 3^40000)")


@pytest.mark.parametrize("source", ["cyclic 3 2 1 1", "standard 3 2 1 1", "matrix -"])
def test_homology_json_writes_no_text(capsys, monkeypatch, source):
    monkeypatch.setattr(cli, "_group_line", pytest.fail)
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[4, 1], [1, 4]]"))
    code, out, _ = run_cli(capsys, "--json", "homology", *source.split())
    assert code == 0 and json.loads(out)["rank"] == 0


@pytest.mark.parametrize("source", ["cyclic", "standard"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_homology_refuses_a_factor_too_long_to_write(capsys, source, flags):
    # H1 = Z/(P(P - 4)): 8 801 decimal digits at P = 10^2200 + 1, more than
    # Python writes; 8 001 at P = 10^2000 + 1, which still prints
    big = 10**2200 + 1
    code, out, err = run_cli(capsys, *flags, "homology", source, "2", str(big), "1", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error: H1 too large to write: an invariant factor of 14617 bits "
        "has over 4300 decimal digits\n"
    )
    p = 10**2000 + 1
    code, out, err = run_cli(capsys, *flags, "homology", source, "2", str(p), "1", "2")
    assert (code, err) == (0, "")
    if flags:
        assert json.loads(out) == {"rank": 0, "torsion": [p * (p - 4)]}
        assert len(out) == 4041
    else:
        assert out == f"H1 = Z/{p * (p - 4)} (order {p * (p - 4)})\n"


def test_writable_factors_end_at_the_interpreters_digit_limit(monkeypatch):
    cli._check_writable(AbelianGroup(0, (10**4300 - 1,)), "H1")  # 4 300 digits
    with pytest.raises(ValueError, match="has over 4300 decimal digits"):
        cli._check_writable(AbelianGroup(0, (10**4300,)), "H1")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
    cli._check_writable(AbelianGroup(0, (10**4300,)), "H1")


def test_homology_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([[4, 1], [1, 4]]))
    code, out, _ = run_cli(capsys, "--json", "homology", "matrix", str(path))
    assert code == 0
    assert json.loads(out) == {"rank": 0, "torsion": [15]}


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[9] * 120] * 120, "120 x 120 cells x 4 bits = 57600"),
        ([[1] * 100] * 99 + [[1] * 99 + [2]], "100 x 100 cells x 2 bits = 20000"),
        ([[0] * 10_001], "1 x 10001 cells x 1 bits = 10001"),
        ([[10**4299]], "1 x 1 cells x 14281 bits = 14281"),  # 4 300 digits are read
    ],
    ids=["120x120", "one-wide-entry", "zeros", "digit-limit"],
)
def test_homology_matrix_cap(tmp_path, capsys, monkeypatch, rows, message):
    def no_work(*args):
        raise AssertionError("a matrix over the cap was reduced")

    monkeypatch.setattr(homology, "cokernel", no_work)
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: matrix too large: {message} exceed the cap of 10000\n"


def test_homology_matrix_cap_is_inclusive(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([[0] * 10_000]))  # 10000 cells x 1 bit
    code, out, _ = run_cli(capsys, "--json", "homology", "matrix", str(path))
    assert code == 0 and json.loads(out) == {"rank": 10_000, "torsion": []}


DEEP_JSON = "[" * 2000 + "]" * 2000


def test_deeply_nested_json_is_rejected(tmp_path, capsys, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert (code, out, err) == (1, "", "error: JSON nested too deeply\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_JSON))
    code, out, err = run_cli(capsys, "alexander", "--presentation", "-")
    assert (code, out, err) == (1, "", "error: JSON nested too deeply\n")


def test_malformed_json_is_rejected(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mat.json"
    path.write_text("[[1, 2]")
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert (code, out, err) == (1, "", "error: Expecting ',' delimiter: line 1 column 8 (char 7)\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"generators": ['))
    code, out, err = run_cli(capsys, "alexander", "--presentation", "-")
    assert (code, out, err) == (1, "", "error: Expecting value: line 1 column 17 (char 16)\n")


@pytest.mark.parametrize("depth", [cli.MAX_JSON_DEPTH + 1, 980])
def test_json_nesting_cap_does_not_depend_on_the_interpreter(tmp_path, depth):
    # a fresh process has a shallow stack, so the parser itself may accept
    # the nesting; the cap refuses it whatever the Python version
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    proc = subprocess.run(
        [sys.executable, "-m", "seifknot.cli", "homology", "matrix", str(path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: JSON nested too deeply\n"


def test_json_at_the_nesting_cap_is_read(tmp_path, capsys):
    # the entry is read and rejected, so the cap let the file through
    depth = cli.MAX_JSON_DEPTH
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "1" + "]" * depth)
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: matrix entry [[[") and len(err) < 100


def test_homology_matrix_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text("[]")
    code, _, err = run_cli(capsys, "homology", "matrix", str(path))
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "homology", "matrix", str(tmp_path / "absent"))
    assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "rows,bad",
    [
        ([[1.5, 2], [3, 4]], "1.5"),
        ([[True, 2], [3, 4]], "true"),
        ([[1, 2], [3, "4"]], '"4"'),
        ([[1, 2], [[3], 4]], "matrix entry [3] is not"),
        ([["a" * 1_000_000, 2]], 'matrix entry "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa... is not'),
        ([1, 2], "list of matrix rows"),
        ([[1, 2], [3]], "ragged"),
    ],
    ids=["float", "bool", "string", "list", "long-string", "flat", "ragged"],
)
def test_homology_matrix_rejects_non_integer_entries(tmp_path, capsys, rows, bad):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and bad in err
    assert err.count("\n") == 1 and len(err) < 100


# 5 001 decimal digits, more than the interpreter's int() reads by default
HUGE = "1" + "0" * 5000
CLIPPED = "1" + "0" * 36 + "..."


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["homology", "matrix", "-"], f"[[{HUGE}]]",
         f"JSON integer {CLIPPED} has over 4300 digits"),
        (["homology", "matrix", "-"], f"[[1, -{HUGE}]]",
         f"JSON integer -{CLIPPED[:-4]}... has over 4300 digits"),
        (["alexander", "--presentation", "-"], f'{{"generators": ["x"], "relators": [{HUGE}]}}',
         f"JSON integer {CLIPPED} has over 4300 digits"),
        (["alexander", "--presentation", "-"],
         json.dumps({"generators": ["x", "y"], "relators": [f"x^{HUGE} y"]}),
         f"exponent {CLIPPED} has over 4300 digits"),
    ],
    ids=["matrix", "matrix-negative", "presentation-integer", "presentation-exponent"],
)
def test_integers_too_long_to_read_are_refused(capsys, monkeypatch, argv, stdin, message):
    for prefix in ([], ["--json"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, *prefix, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("exponent", [10**20, 10**4299], ids=["past-maxsize", "digit-limit"])
def test_a_long_exponent_is_counted_against_the_letter_cap(capsys, monkeypatch, exponent):
    # len() of a word fails past sys.maxsize letters
    pres = {"generators": ["x", "y"], "relators": [f"x^{exponent} y"]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pres)))
    code, out, err = run_cli(capsys, "alexander", "--presentation", "-")
    assert (code, out) == (1, "")
    assert err == (
        f"error: presentation too large: {exponent + 1} relator letters exceed the cap of 1000\n"
    )


NINES = "9" * 4300  # the most digits the interpreter's int() reads by default


@pytest.mark.parametrize(
    "argv, stdin, size, what",
    [
        (["alexander", "--presentation", "-"],
         json.dumps({"generators": ["x", "y"], "relators": [f"x^{NINES} y x^{NINES} y^-1"]}),
         2 * int(NINES) + 2, "presentation too large: {} relator letters exceed the cap of 1000"),
        (["present", NINES, "3", "2", NINES, "--form", "cyclic"], "",
         int(NINES) ** 3, "presentation too large: {} relator syllables exceed the cap of 300000"),
        (["dunwoody", "raw", "1", "1", "1", NINES, "2", "0"], "",
         5 * int(NINES), "diagram too large: {} glued slots n(2a+b+c) exceed the cap of 1000000"),
    ],
    ids=["alexander-letters", "present-syllables", "dunwoody-slots"],
)
def test_a_size_too_long_to_write_is_refused_by_its_bit_length(capsys, monkeypatch, argv, stdin,
                                                               size, what):
    # each size has over 4 300 decimal digits, more than Python writes
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    count = f"at least 2^{size.bit_length() - 1}"
    assert (code, out, err) == (1, "", f"error: {what.format(count)}\n")


def _usage_error(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("value", ["12x", "1.5", "", "x" * 40])
def test_a_rejected_integer_argument_reads_as_argparse_writes_it(capsys, value):
    # up to 40 characters, the message is argparse's own for type=int
    oracle = argparse.ArgumentParser(prog="seifknot knot ambient")
    for name in "abcr":
        oracle.add_argument(name, type=int)
    argv = ["1", "2", "3", value]
    want = _usage_error(capsys, oracle.parse_args, argv)
    assert want.endswith(f"error: argument r: invalid int value: {value!r}\n")
    assert _usage_error(capsys, main, ["knot", "ambient", *argv]) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["knot", "ambient", "1", "2", "3", HUGE],
        ["knot", "ambient", "1", "2", "3", "7" * 40 + "x"],
        ["--seed", HUGE, "verify-all"],
        ["dunwoody", "raw", "1", "1", "1", "3", "2", HUGE],
    ],
    ids=["knot-r", "knot-r-41", "seed", "raw-s"],
)
def test_a_rejected_integer_argument_is_quoted_clipped(capsys, argv):
    value = max(argv, key=len)
    err = _usage_error(capsys, main, argv)
    assert err.endswith(f": invalid int value: '{value[:37]}...'\n")


@pytest.mark.parametrize(
    "value, quoted",
    [("2", "2"), ("-07", "-7"), ("1" + "0" * 99, "1" + "0" * 36 + "...")],
    ids=["small", "converted", "100-digits"],
)
def test_a_rejected_s_is_quoted_clipped(capsys, value, quoted):
    err = _usage_error(capsys, main, ["dunwoody", "raw", "1", "1", "1", "3", "2", value])
    assert err.endswith(f"error: argument s: invalid choice: {quoted} (choose from 0, 1)\n")
    assert "{0,1}" in err.splitlines()[0]  # the usage line still names the choices


def test_knot_from_seifert(capsys):
    code, out, _ = run_cli(capsys, "--json", "knot", "from-seifert", "2", "3", "2", "2")
    data = json.loads(out)
    assert code == 0
    assert data == {
        "knot": [1, 1, 4, 1],
        "ambient": [5, 2],
        "ambient_name": "L(5,2)",
        "sheets": 2,
        "shift": 1,
    }


def test_knot_reduce(capsys):
    code, out, _ = run_cli(capsys, "--json", "knot", "reduce", "1", "2", "3", "4")
    data = json.loads(out)
    assert code == 0
    assert data["name"] == "S^3"
    assert data["moves"] == [
        ["swap", [1, 3, 2, 3]],
        ["IV", [1, 2, 1, 2]],
        ["IV", [1, 1, 0, 1]],
        ["swap0", [1, 0, 1, 1]],
        ["I", [0, 0, 1, 0]],
    ]
    assert "runs" not in data
    code, out, _ = run_cli(capsys, "knot", "reduce", "1", "2", "3", "4")
    assert code == 0
    assert out.splitlines()[1:4] == [" swap  K(1,3,2,3)", "   IV  K(1,2,1,2)", "   IV  K(1,1,0,1)"]


def test_knot_reduce_runs(capsys):
    code, out, _ = run_cli(capsys, "--json", "knot", "reduce", "--runs", "1", "2", "3", "4")
    data = json.loads(out)
    assert code == 0
    assert data["name"] == "S^3"
    assert data["runs"] == [
        ["swap", 1, [1, 3, 2, 3]],
        ["IV", 2, [1, 1, 0, 1]],
        ["swap0", 1, [1, 0, 1, 1]],
        ["I", 1, [0, 0, 1, 0]],
    ]
    assert "moves" not in data
    code, out, _ = run_cli(capsys, "knot", "reduce", "1", "2", "3", "4", "--runs")
    assert code == 0
    assert out.splitlines()[1:4] == [" swap x1  K(1,3,2,3)", "   IV x2  K(1,1,0,1)", "swap0 x1  K(1,0,1,1)"]


def test_knot_reduce_json_matches_indenting_encoder(capsys):
    # the moves are written by hand; the result must be what json.dumps gives
    for knot in [(1, 2, 3, 4), (5, 0, 2, 5), (0, 1, 0, 0), (7, 3, 4, 7), (3, 7, 2, 5)]:
        code, out, _ = run_cli(capsys, "--json", "knot", "reduce", *map(str, knot))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["moves"]


def _moves_by_encoder(knot, lens, trace):
    data = {
        "start": list(knot),
        "lens": list(lens),
        "name": lens_name(lens),
        "moves": [[label, state] for label, *state in one_step_moves(trace)],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _moves_by_lines(knot, lens, trace):
    lines = [f"{label:>5}  K({a},{b},{c},{r})" for label, a, b, c, r in one_step_moves(trace)]
    return "\n".join([f"start  K({','.join(map(str, knot))})", *lines, f"result {lens_name(lens)}"]) + "\n"


@pytest.mark.parametrize(
    "knot",
    [
        (5, 0, 2, 5),  # residue a, b = 0: I x2
        (8, 3, 2, 8),  # residue a: III x2, swap0, I
        (2, 3, 5, 2),  # residue a: III x2 empties a, which ends it
        (1, 4, 2, 3),  # residue a+c, c <= b: IV x2, swap0
        (1, 2, 3, 4),  # residue a+c, c > b: swap, IV x2, swap0, I
        (3, 7, 2, 12),  # residue a+b+c: swap, III x3
        (0, 1, 0, 0),  # a trace of no moves
        (34514, 34515, 971, 70000),  # residue a+b+c: swap, III x34514
    ],
)
def test_knot_reduce_json_writes_each_move_as_the_encoder_does(capsys, knot):
    lens, trace = reduce_to_lens(KnotParams(*knot))
    code, out, err = run_cli(capsys, "--json", "knot", "reduce", *map(str, knot))
    assert (code, err) == (0, "")
    assert out == _moves_by_encoder(knot, lens, trace)
    code, out, err = run_cli(capsys, "knot", "reduce", *map(str, knot))
    assert (code, err) == (0, "")
    assert out == _moves_by_lines(knot, lens, trace)


def test_knot_reduce_json_writes_runs_of_no_moves(capsys, monkeypatch):
    # reduce_to_lens records no empty run, but the writer must skip one
    # wherever it stands, the first and the last run included
    knot, lens = (5, 0, 2, 5), (2, 1)
    traces = [
        [
            ("swap", 0, KnotParams(5, 0, 2, 5)),
            ("I", 1, KnotParams(3, 0, 2, 3)),
            ("III", 0, KnotParams(3, 0, 2, 3)),
            ("I", 1, KnotParams(1, 0, 2, 1)),
            ("IV", 0, KnotParams(1, 0, 2, 1)),
        ],
        [("I", 0, KnotParams(5, 0, 2, 5))],
    ]
    for trace, moves in zip(traces, (2, 0)):
        monkeypatch.setattr(knots11, "reduce_to_lens", lambda k, trace=trace: (lens, trace))
        code, out, _ = run_cli(capsys, "--json", "knot", "reduce", *map(str, knot))
        assert code == 0
        assert out == _moves_by_encoder(knot, lens, trace)
        assert len(json.loads(out)["moves"]) == moves
        code, out, _ = run_cli(capsys, "knot", "reduce", *map(str, knot))
        assert code == 0
        assert out == _moves_by_lines(knot, lens, trace)
        assert len(out.splitlines()) == moves + 2


def test_knot_reduce_move_cap(capsys):
    # 300 000 moves I, then one more
    code, out, _ = run_cli(capsys, "knot", "reduce", "300000", "0", "1", "300000")
    assert code == 0
    assert len(out.splitlines()) == cli.MAX_TRACE_MOVES + 2
    code, out, err = run_cli(capsys, "--json", "knot", "reduce", "300001", "0", "1", "300001")
    assert code == 1 and out == ""
    assert "trace too long: 300001 moves" in err and "--runs" in err
    code, out, _ = run_cli(capsys, "--json", "knot", "reduce", "--runs", "300001", "0", "1", "300001")
    assert code == 0
    assert json.loads(out)["runs"] == [["I", 300001, [0, 0, 1, 0]]]


def test_knot_ambient(capsys):
    code, out, _ = run_cli(capsys, "knot", "ambient", "2", "1", "3", "2")
    assert code == 0
    assert "L(4,1)" in out
    code, _, err = run_cli(capsys, "knot", "ambient", "1", "1", "1", "0")
    assert code == 1 and "error" in err


def test_dunwoody_check(capsys):
    code, out, _ = run_cli(capsys, "--json", "dunwoody", "check", "3", "2", "1", "1")
    data = json.loads(out)
    assert code == 0
    assert data["params"] == [1, 1, 0, 3, 1, 0]
    assert data["counts"] == [1, 3, 3, 1]
    assert data["criterion"] and data["relators_match"]


def test_dunwoody_check_reports_unmatched_relators(capsys, monkeypatch):
    real = dunwoody.check_seifert_diagram
    monkeypatch.setattr(
        dunwoody, "check_seifert_diagram", lambda cover, word: (real(cover, word)[0], False)
    )
    code, out, _ = run_cli(capsys, "dunwoody", "check", "3", "2", "1", "1")
    assert code == 1
    assert "\nrelators match cyclic presentation: no\n" in out
    code, out, _ = run_cli(capsys, "--json", "dunwoody", "check", "3", "2", "1", "1")
    assert code == 1 and json.loads(out)["relators_match"] is False


def test_dunwoody_raw(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "dunwoody", "raw", "1", "1", "0", "3", "1", "0", "--edges"
    )
    data = json.loads(out)
    assert code == 0
    assert data["criterion"]
    assert data["relators"] == ["x1 x2 x3^-1", "x2 x3 x1^-1", "x3 x1 x2^-1"]
    assert len(data["edge_classes"]) == 3
    # failing rotation is reported, not an error
    code, out, _ = run_cli(capsys, "--json", "dunwoody", "raw", "1", "1", "0", "3", "0", "0")
    data = json.loads(out)
    assert code == 0
    assert not data["criterion"]
    assert "relators" not in data
    # non-sphere strand counts are rejected
    code, _, err = run_cli(capsys, "dunwoody", "raw", "1", "0", "0", "1", "0", "0")
    assert code == 1 and "error" in err


def test_dunwoody_raw_refuses_an_edge_glued_to_its_own_reverse(capsys, monkeypatch):
    # no diagram in the sweeps of test_dunwoody.py glues an edge to its own
    # reverse, so here every closed walk of the gluing reads a flip
    real = dunwoody._add_to_holonomy
    monkeypatch.setattr(dunwoody, "_add_to_holonomy", lambda n, hol, k, pi: real(n, hol, k, 1))
    code, out, err = run_cli(capsys, "--json", "dunwoody", "raw", "1", "1", "0", "3", "1", "0")
    assert (code, out) == (1, "")
    assert "D(1,1,0,3,1,0)" in err and "glued to its own reverse" in err


@pytest.mark.parametrize(
    "command, slots",
    [
        # 250001 * (2 + 1 + 1) and 1000 * (1000*3*1 + 7 - 6)
        ("raw 1 1 1 250001 0 0", 1_000_004),
        ("check 1000 7 3 1", 3_001_000),
    ],
)
def test_dunwoody_size_cap(capsys, monkeypatch, command, slots):
    def no_work(*args):
        raise AssertionError("a diagram over the cap was built")

    monkeypatch.setattr(dunwoody, "GluedDiagram", no_work)
    monkeypatch.setattr(dunwoody, "check_seifert_diagram", no_work)
    code, out, err = run_cli(capsys, "dunwoody", *command.split())
    assert code == 1 and not out
    assert f"{slots} glued slots" in err and "cap of 1000000" in err


def test_dunwoody_size_cap_is_inclusive(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise ValueError("stop")

    monkeypatch.setattr(dunwoody, "GluedDiagram", record)
    monkeypatch.setattr(dunwoody, "check_seifert_diagram", record)
    run_cli(capsys, "dunwoody", "raw", "1", "1", "1", "250000", "0", "0")
    run_cli(capsys, "dunwoody", "check", "500", "2", "1", "4")  # 500 * 2000
    assert len(built) == 2


# edge classes of D(2,2,1,3,3,0), the diagram of (3,5,2,1), as the CLI lists them
D221330_EDGE_CLASSES = [
    [[["m", 1, 1], 1], [["m", 1, 2], 1], [["m", 2, 5], 1], [["m", 2, 6], 1],
     [["m", 3, 3], 1], [["m", 3, 4], 1], [["a", 2, 1], 1]],
    [[["m", 1, 3], 1], [["m", 1, 4], 1], [["m", 2, 1], 1], [["m", 2, 2], 1],
     [["m", 3, 5], 1], [["m", 3, 6], 1], [["a", 3, 1], 1]],
    [[["m", 1, 5], 1], [["m", 1, 6], 1], [["m", 2, 3], 1], [["m", 2, 4], 1],
     [["m", 3, 1], 1], [["m", 3, 2], 1], [["a", 1, 1], 1]],
]

PINNED_DUNWOODY_JSON = {
    "check 3 5 2 1 --edges": {
        "counts": [1, 3, 3, 1],
        "criterion": True,
        "edge_classes": D221330_EDGE_CLASSES,
        "params": [2, 2, 1, 3, 3, 0],
        "relators_match": True,
    },
    "check 2 3 2 2 --edges": {
        "counts": [1, 2, 2, 1],
        "criterion": True,
        "edge_classes": [
            [[["m", 1, 1], 1], [["m", 1, 2], 1], [["m", 1, 3], 1],
             [["a", 1, 1], -1], [["a", 1, 2], -1], [["a", 2, 3], -1], [["a", 2, 4], -1]],
            [[["m", 2, 1], 1], [["m", 2, 2], 1], [["m", 2, 3], 1],
             [["a", 1, 3], -1], [["a", 1, 4], -1], [["a", 2, 1], -1], [["a", 2, 2], -1]],
        ],
        "params": [1, 1, 4, 2, 1, 1],
        "relators_match": True,
    },
    "raw 2 2 1 3 3 0 --edges": {
        "counts": [1, 3, 3, 1],
        "criterion": True,
        "edge_classes": D221330_EDGE_CLASSES,
        "params": [2, 2, 1, 3, 3, 0],
        "relators": ["x1^2 x2^2 x3^-3", "x2^2 x3^2 x1^-3", "x3^2 x1^2 x2^-3"],
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_DUNWOODY_JSON))
def test_dunwoody_json_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, "--json", "dunwoody", *command.split())
    assert (code, err) == (0, "")
    expected = json.dumps(PINNED_DUNWOODY_JSON[command], indent=2, sort_keys=True)
    assert out == expected + "\n"


def test_alexander_example(capsys):
    code, out, _ = run_cli(capsys, "--json", "alexander", "--example")
    data = json.loads(out)
    assert code == 0
    assert data["alexander"] == "1 - 4t + 5t^2 - 4t^3 + t^4"
    assert data["determinant"] == "15"


def test_alexander_from_file(tmp_path, capsys):
    from seifknot.foxcalc import example_knot_presentation

    path = tmp_path / "pres.json"
    path.write_text(json.dumps(example_knot_presentation().to_dict()))
    code, out, _ = run_cli(capsys, "alexander", "--presentation", str(path))
    assert code == 0
    assert "|Delta(-1)| = 15" in out


def test_alexander_letter_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pres.json"

    def run(e):  # x^e y x^-e y^-1 has 2e + 2 letters
        path.write_text(json.dumps({"generators": ["x", "y"], "relators": [f"x^{e} y x^-{e} y^-1"]}))
        return run_cli(capsys, "--json", "alexander", "--presentation", str(path))

    code, out, _ = run(499)  # 1000 letters, at the cap
    assert code == 0
    assert json.loads(out) == {"alexander": "1 - t^499", "determinant": "2", "terms": [[0, 1], [499, -1]]}
    monkeypatch.setattr(foxcalc, "alexander_polynomial", pytest.fail)
    code, out, err = run(500)
    assert code == 1 and out == ""
    assert "1002 relator letters exceed the cap of 1000" in err


@pytest.mark.parametrize(
    "pres,bad",
    [
        ([1, 2], "JSON object"),
        ({"generators": "xy", "relators": ["x y"]}, "generators"),
        ({"generators": ["x", 2], "relators": []}, "generators"),
        ({"relators": ["x"]}, "generators"),
        ({"generators": ["x", "y"], "relators": [1]}, "relators"),
        ({"generators": ["x", "y"], "relators": "x y"}, "relators"),
        ({"generators": ["x", "x"], "relators": ["x"]}, "duplicate"),
        ({"generators": ["x", "y"], "relators": ["z"]}, "unknown generator"),
        ({"generators": ["x", "y"], "relators": ["x^ y x^-1 y^-1"]}, "bad exponent"),
        ({"generators": ["x", "y"], "relators": ["x^1_0 y x^-10 y^-1"]}, "bad exponent"),
        ({"generators": ["x", "y"], "relators": ["x^\u0663 y x^-3 y^-1"]}, "bad exponent"),
        ({"generators": ["x", "y"], "relators": ["x^+2 y x^-2 y^-1"]}, "bad exponent"),
        ({"generators": ["x", "y"], "relators": ["x^0 y"]}, "bad exponent"),
        ({"generators": ["x", "y"], "relators": ["x^02 y x^-2 y^-1"]}, "bad exponent"),
    ],
    ids=["list", "string-generators", "non-string-generator", "no-generators",
         "non-string-relator", "string-relators", "duplicate", "unknown",
         "empty-exponent", "underscore-exponent", "non-ascii-exponent",
         "plus-exponent", "zero-exponent", "leading-zero-exponent"],
)
def test_alexander_rejects_malformed_presentation(tmp_path, capsys, pres, bad):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    code, out, err = run_cli(capsys, "alexander", "--presentation", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and bad in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--nmax", "1", "--pmax", "1", "--lmax", "0"],
        ["verify-all", "--nmax", "1"],
        ["verify-all", "--pmax", "1"],
        ["verify-all", "--lmax", "0"],
        ["verify-all", "--nmax", "2", "--lmax", "1"],  # n = 2 needs l >= 2
    ],
    ids=["all", "nmax", "pmax", "lmax", "n2-l1"],
)
def test_verify_all_rejects_an_empty_grid(capsys, monkeypatch, argv):
    monkeypatch.setattr("seifknot.verify._tietze_at", pytest.fail)  # the first step
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 1 and out == ""
    assert "has no parameter tuple" in err


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_verify_all_rejects_a_budget_below_one(capsys, monkeypatch, budget):
    monkeypatch.setattr("seifknot.verify._tietze_at", pytest.fail)  # the first step
    code, out, err = run_cli(capsys, "--budget", budget, "verify-all", "--nmax", "3")
    assert code == 1 and out == ""
    assert f"budget must be at least 1, got {budget}" in err


@pytest.mark.parametrize(
    "command, message",
    [
        # 3 * 3 * 33334 cyclic syllables; with the standard form 7 * 3 + 8 more
        ("present 3 7 2 33334 --form cyclic", "300006 relator syllables"),
        ("present 3 7 2 33333", "300026 relator syllables"),
        ("present 42858 7 2 1 --form standard", "300014 relator syllables"),
        ("tietze 2 3 1 75001", "300004 relator syllables"),
        ("homology cyclic 2 3 1 75001", "300004 relator syllables"),
        ("homology cyclic 548 3 1 1", "300304 relator syllables"),
        ("homology standard 42857 3 1 1", "300007 relator syllables"),
        # invalid parameters are reported as such, even over a cap
        ("present 100000 3 5 1", "need 1 <= q < p"),
        ("tietze 100000 3 5 1", "need 1 <= q < p"),
        ("homology cyclic 100000 3 5 1", "need 1 <= q < p"),
        ("homology standard 100000 4 2 1", "need gcd(p, q) = 1"),
        ("dunwoody check 2000 3 5 1000", "need 1 <= q < p"),  # 2000 * 9999993 slots
    ],
)
def test_presentation_size_caps(capsys, monkeypatch, command, message):
    def no_work(*args):
        raise AssertionError("a presentation or diagram over the cap was built")

    for owner, name in [(presentations, "seifert_cyclic_presentation"),
                        (presentations, "standard_seifert_presentation"), (freegroup, "seifert_word"),
                        (presentations, "tietze_witnesses"), (dunwoody, "check_seifert_diagram")]:
        monkeypatch.setattr(owner, name, no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and not out
    assert err.startswith("error: ") and message in err


def test_presentation_size_caps_are_inclusive(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise ValueError("stop")

    for owner, name in [(presentations, "seifert_cyclic_presentation"),
                        (presentations, "standard_seifert_presentation"), (freegroup, "seifert_word"),
                        (presentations, "tietze_witnesses")]:
        monkeypatch.setattr(owner, name, record)
    for command in (
        "present 3 7 2 33333 --form cyclic",  # 299997 syllables
        "tietze 2 3 1 75000",  # 300000
        "homology cyclic 547 3 1 1",  # 299209
        "homology standard 42855 3 1 1",  # 299993
    ):
        run_cli(capsys, *command.split())
    assert len(built) == 4


def test_json_output_is_byte_stable(capsys):
    first = run_cli(capsys, "--json", "dunwoody", "check", "2", "3", "2", "2")
    second = run_cli(capsys, "--json", "dunwoody", "check", "2", "3", "2", "2")
    assert first == second


def test_verify_all_defaults_to_the_gate_grid(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: seen.append(kwargs) or [])
    run_cli(capsys, "verify-all")
    args = seen[0]
    assert (args["n_max"], args["p_max"], args["l_max"]) == GATE_GRID


# calls that set, or leave at their defaults, every option a reused parser
# could carry from one call into the next; a usage error comes before a
# valid call in both orders
PARSER_REUSE_CALLS = [
    "--json knot reduce 1 2 3 4",
    "knot reduce --runs 1 2 3 4",
    "--json knot reduce --runs 1 2 3 4",
    "knot reduce 1 2 3 4",
    "--json dunwoody check 2 3 2 2 --edges",
    "dunwoody check 2 3 2 2",
    "present 3 2 1 1 --form cyclic",
    "--json present 3 2 1 1 --form standard",
    "present 3 2 1 1 --form both",
    "present 3 2 1 1",
    "--seed 5 --budget 7 verify-all --nmax 3 --pmax 4 --lmax 2",
    "--json verify-all",
    "present 3 2",
    "--json knot ambient 3 4 4 3",
    "knot frobnicate 1 2 3 4",
    "dunwoody raw 1 1 1 3 2 0 --edges",
    "dunwoody raw 1 1 1 3 2 5",
]


def test_a_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch, gate_results):
    kwargs_seen = []

    def shared_run(**kwargs):  # verify-all prints the gate grid's results
        kwargs_seen.append(kwargs)
        return gate_results

    monkeypatch.setattr(verify, "run_all", shared_run)

    def call(command):  # (exit code, stdout, stderr, run_all's arguments)
        kwargs_seen.clear()
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, list(kwargs_seen)

    fresh = {}
    for command in PARSER_REUSE_CALLS:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh[command] = call(command)
    n_max, p_max, l_max = GATE_GRID
    assert fresh["--json verify-all"][3] == [
        dict(n_max=n_max, p_max=p_max, l_max=l_max, seed=0, budget=presentations.DEFAULT_BUDGET)
    ]
    seeded = fresh["--seed 5 --budget 7 verify-all --nmax 3 --pmax 4 --lmax 2"]
    assert seeded[3] == [dict(n_max=3, p_max=4, l_max=2, seed=5, budget=7)]
    assert [fresh[c][0] for c in ("present 3 2", "knot frobnicate 1 2 3 4")] == [2, 2]
    builds = []

    def counted_build():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    for command in PARSER_REUSE_CALLS + PARSER_REUSE_CALLS[::-1]:
        assert call(command) == fresh[command], command
    assert len(builds) == 1


def test_module_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "seifknot.cli", "--json", "homology", "cyclic",
         "2", "3", "2", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rank": 0, "torsion": [15]}


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--json", "knot", "ambient", "3", "4", "4", "3"], 0, "out", '"name": "L(8,1)"'),
        (["knot", "reduce", "0", "0", "0", "0"], 1, "err", "error: need at least one strand"),
        (["frobnicate"], 2, "err", "invalid choice: 'frobnicate'"),
    ],
    ids=["ok", "rejected", "usage"],
)
def test_console_script_exit_codes(monkeypatch, capsys, argv, code, stream, text):
    # `entrypoint` is the `seifknot` console script pyproject.toml declares
    monkeypatch.setattr(sys, "argv", ["seifknot", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert text in (captured.out if stream == "out" else captured.err)


def test_a_fresh_import_frees_the_old_package():
    # a module-level typing alias naming one of the package's classes sits
    # in typing's cache and would keep each import's classes alive; vars()
    # of a lazy layer runs it, which can import more modules mid-walk
    script = """
import gc, importlib, sys, weakref
importlib.import_module("seifknot.cli")
refs = [weakref.ref(obj) for name, mod in list(sys.modules.items()) if name.startswith("seifknot")
        for obj in vars(mod).values() if isinstance(obj, type) and obj.__module__ == name]
for name in [n for n in sys.modules if n.startswith("seifknot")]:
    del sys.modules[name]
importlib.import_module("seifknot.cli")
gc.collect()
print(len(refs), sum(ref() is not None for ref in refs))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    classes, alive = map(int, proc.stdout.split())
    assert classes > 10 and alive == 0


SEIFERT_POINTS = ["3 2 1 1", "2 3 2 2", "4 5 2 1", "2 4 1 2", "3 4 2 1"]  # last invalid
KNOTS = ["1 2 3 4", "3 4 4 3", "1 3 1 2", "2 3 1 3", "2 2 2 2", "2 4 0 2", "1 2 3 0", "0 0 0 0"]

# (arguments, stdin) of single-point commands: valid, rejected and
# unsupported inputs, and one input over each of the five caps
SINGLE_POINT_SWEEP = [
    *[(f"present {point} --form {form}", None)
      for point in SEIFERT_POINTS for form in ("cyclic", "standard", "both")],
    *[(f"{command} {point}", None)
      for command in ("tietze", "knot from-seifert", "homology cyclic", "homology standard")
      for point in SEIFERT_POINTS],
    *[(f"homology {source} {point}", None)
      for source in ("cyclic", "standard") for point in ("150 7 2 3", "40 5 2 1", "5 5 1 1")],
    ("homology standard 9006 3 1 1", None),  # an order written as a product
    *[(f"knot {action} {knot}", None)
      for action in ("ambient", "reduce", "reduce --runs") for knot in KNOTS],
    *[(f"dunwoody check {point}{edges}", None)
      for point in SEIFERT_POINTS for edges in ("", " --edges")],
    *[(f"dunwoody raw {diagram}{edges}", None)
      for diagram in ("1 1 1 3 2 0", "1 2 0 3 1 1", "2 1 1 2 0 0")
      for edges in ("", " --edges")],
    ("homology matrix -", "[[2, 4], [6, 8]]"),
    ("alexander --example", None),
    ("present 3 7 2 33334 --form cyclic", None),
    ("homology matrix -", json.dumps([[0] * 10_001])),
    ("knot reduce 300001 0 1 300001", None),
    ("dunwoody raw 1 1 1 250001 2 0", None),
    ("alexander --presentation -",
     json.dumps({"generators": ["x", "y"], "relators": ["x^500 y x^-500 y^-1"]})),
]

SINGLE_POINT_SHA256 = "8946a98548eeedb08908bc1a212afb31632e035ae17fe7e6efbdf47a2fbb77fb"


def test_single_point_commands_are_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for command, stdin in SINGLE_POINT_SWEEP:
        for prefix in ([], ["--json"]):
            argv = prefix + command.split()
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
            code, out, err = run_cli(capsys, *argv)
            digest.update(json.dumps([argv, stdin, code, out, err]).encode() + b"\n")
    assert digest.hexdigest() == SINGLE_POINT_SHA256
