import json
import subprocess
import sys

import pytest

from seifknot.cli import build_parser, main
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
    assert [move for move, _ in data["moves"]] == ["swap", "IV", "IV", "swap0", "I"]


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


def test_json_output_is_byte_stable(capsys):
    first = run_cli(capsys, "--json", "dunwoody", "check", "2", "3", "2", "2")
    second = run_cli(capsys, "--json", "dunwoody", "check", "2", "3", "2", "2")
    assert first == second


def test_verify_all_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify-all", "--nmax", "3", "--pmax", "3", "--lmax", "2"
    )
    data = json.loads(out)
    assert code == 0
    assert data["all_passed"]
    assert len(data["checks"]) == 10
    assert {c["name"] for c in data["checks"]} >= {"tietze-grid", "property-suite"}


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
