"""Single-point commands whose cost once grew with the value of their input,
each with its own wall-clock bound. Each bound is far above the time the
command takes now and far below what the value-linear code took (noted per
test, measured on a 2-vCPU Xeon), so a regression fails fast."""

import json
from time import perf_counter

import pytest

from seifknot.cli import main
from seifknot.foxcalc import LaurentPoly, fox_derivative
from seifknot.freegroup import FreeWord
from seifknot.presentations import seifert_cyclic_presentation


def timed_json(capsys, *argv):
    start = perf_counter()
    code = main(["--json", *argv])
    seconds = perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out), seconds


BIG = 10**30


@pytest.mark.parametrize(
    "knot",
    [
        (3_000_000, 0, 1, 3_000_000),  # 3M moves I: 18.7 s and 88 MB of JSON before
        (BIG, 0, 1, BIG),
        (BIG, 1, BIG + 1, BIG),  # aligned: BIG moves III
        (1, BIG + 1, BIG, BIG + 1),  # crossed: BIG moves IV
        (BIG, BIG + 1, 1, 2 * BIG + 2),  # twisted: swap, then BIG + 1 moves III
    ],
    ids=["3e6", "single-1e30", "aligned-1e30", "crossed-1e30", "twisted-1e30"],
)
def test_knot_reduce_is_bounded(capsys, knot):
    data, seconds = timed_json(capsys, "knot", "reduce", "--runs", *map(str, knot))
    assert seconds < 0.1
    assert len(data["runs"]) <= 4
    a, b, c, _ = knot
    assert sum(runs for _, runs, _ in data["runs"]) <= a + b + c + 2
    ambient, _ = timed_json(capsys, "knot", "ambient", *map(str, knot))
    assert data["lens"] == ambient["lens"]


def test_present_is_bounded(capsys):
    # 9.1 s before: the power (x1 x2)^6000 was built by 6000 products
    data, seconds = timed_json(capsys, "present", "2", "3", "1", "6000")
    assert seconds < 0.5
    assert len(data["cyclic"]["relators"]) == 2


def test_alexander_is_bounded(tmp_path, capsys):
    # cofactor expansion took about 74 s on ten dense generators
    pres = seifert_cyclic_presentation(10, 7, 1, 1).to_dict()
    pres["relators"] = pres["relators"][1:]
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    data, seconds = timed_json(capsys, "alexander", "--presentation", str(path))
    assert seconds < 2.0
    assert data["alexander"] == "1"


def test_fox_derivative_is_bounded():
    # 21.6 s before: one Laurent-polynomial sum per letter, each copying
    # the whole coefficient run
    e = 8000
    word = FreeWord(2, [(1, e), (2, 1), (1, -e), (2, -1)])  # x^e y x^-e y^-1
    start = perf_counter()
    by_x, by_y = fox_derivative(word, 1), fox_derivative(word, 2)
    assert perf_counter() - start < 0.5
    assert by_x == LaurentPoly(0, [1] + [0] * (e - 1) + [-1])  # 1 - t^e
    assert by_y == -by_x
