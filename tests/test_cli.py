import json
import subprocess
import sys

import pytest

from seifknot import cli
from seifknot.cli import build_parser, main
from seifknot.dunwoody import diagram_from_seifert
from seifknot.presentations import seifert_parameter_grid
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


def test_homology_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([[4, 1], [1, 4]]))
    code, out, _ = run_cli(capsys, "--json", "homology", "matrix", str(path))
    assert code == 0
    assert json.loads(out) == {"rank": 0, "torsion": [15]}


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
        ([1, 2], "list of matrix rows"),
        ([[1, 2], [3]], "ragged"),
    ],
    ids=["float", "bool", "string", "flat", "ragged"],
)
def test_homology_matrix_rejects_non_integer_entries(tmp_path, capsys, rows, bad):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "homology", "matrix", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and bad in err


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


def test_check_slot_count_closed_form():
    # the cap on `dunwoody check` counts n(nql + p - 2q) slots
    for n, p, q, l in seifert_parameter_grid(*GATE_GRID):
        params = diagram_from_seifert(n, p, q, l)
        assert 2 * params.a + params.b + params.c == n * q * l + p - 2 * q


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
    ],
    ids=["list", "string-generators", "non-string-generator", "no-generators",
         "non-string-relator", "string-relators", "duplicate", "unknown",
         "empty-exponent"],
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
        ("homology cyclic 448 3 1 1", "448 x 448 = 200704 cells"),
        ("homology standard 315 3 1 1", "633 x 317 = 200661 cells"),
    ],
)
def test_presentation_size_caps(capsys, monkeypatch, command, message):
    def no_work(*args):
        raise AssertionError("a presentation over the cap was built")

    for name in ("seifert_cyclic_presentation", "standard_seifert_presentation", "tietze_witnesses"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and not out
    assert err.startswith("error: ") and message in err


def test_presentation_size_caps_are_inclusive(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise ValueError("stop")

    for name in ("seifert_cyclic_presentation", "standard_seifert_presentation", "tietze_witnesses"):
        monkeypatch.setattr(cli, name, record)
    for command in (
        "present 3 7 2 33333 --form cyclic",  # 299997 syllables
        "tietze 2 3 1 75000",  # 300000
        "homology cyclic 447 3 1 1",  # 199809 cells
        "homology standard 314 3 1 1",  # 631 x 316 = 199396 cells
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
