import hashlib
import io
import json
import subprocess
import sys

import pytest

from seifknot import cli
from seifknot.cli import build_parser, main
from seifknot.homology import AbelianGroup
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
    ],
    ids=["120x120", "one-wide-entry", "zeros"],
)
def test_homology_matrix_cap(tmp_path, capsys, monkeypatch, rows, message):
    def no_work(*args):
        raise AssertionError("a matrix over the cap was reduced")

    monkeypatch.setattr(cli, "cokernel", no_work)
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

    monkeypatch.setattr(cli, "GluedDiagram", no_work)
    monkeypatch.setattr(cli, "check_seifert_diagram", no_work)
    code, out, err = run_cli(capsys, "dunwoody", *command.split())
    assert code == 1 and not out
    assert f"{slots} glued slots" in err and "cap of 1000000" in err


def test_dunwoody_size_cap_is_inclusive(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "GluedDiagram", record)
    monkeypatch.setattr(cli, "check_seifert_diagram", record)
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
    monkeypatch.setattr(cli, "alexander_polynomial", pytest.fail)
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

    for name in ("seifert_cyclic_presentation", "standard_seifert_presentation", "seifert_word",
                 "tietze_witnesses", "check_seifert_diagram"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and not out
    assert err.startswith("error: ") and message in err


def test_presentation_size_caps_are_inclusive(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise ValueError("stop")

    for name in ("seifert_cyclic_presentation", "standard_seifert_presentation", "seifert_word",
                 "tietze_witnesses"):
        monkeypatch.setattr(cli, name, record)
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


def test_verify_all_defaults_to_the_gate_grid():
    args = build_parser().parse_args(["verify-all"])
    assert (args.nmax, args.pmax, args.lmax) == GATE_GRID


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
    # in typing's cache and would keep each import's classes alive
    script = """
import gc, importlib, sys, weakref
importlib.import_module("seifknot.cli")
refs = [weakref.ref(obj) for name, mod in sys.modules.items() if name.startswith("seifknot")
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
