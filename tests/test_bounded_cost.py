"""Single-point commands whose cost once grew with the value of their input,
each with its own wall-clock bound. Each bound is far above the time the
command takes now and far below what the value-linear code took (noted per
test, measured on a 2-vCPU Xeon), so a regression fails fast."""

import json
import random
from time import perf_counter

import pytest

from seifknot.cli import main
from seifknot.foxcalc import LaurentPoly, fox_derivative
from seifknot.freegroup import FreeWord
from seifknot.homology import seifert_h1
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


@pytest.mark.parametrize(
    "argv, seconds_bound, expected",
    [
        # 1 000 000 slots, the cap: 3.1 s and 276 MiB when all 2n faces were glued
        (["raw", "1", "1", "1", "250000", "2", "0"], 0.5,
         {"counts": [1, 1, 250000, 1], "criterion": False}),
        # 500 words of 2000 letters: 2.7 s and 307 MiB when all 2n faces were glued
        (["check", "500", "2", "1", "4"], 2.0,
         {"counts": [1, 500, 500, 1], "criterion": True, "relators_match": True}),
    ],
    ids=["raw-at-cap", "check-500"],
)
def test_dunwoody_is_bounded(capsys, argv, seconds_bound, expected):
    data, seconds = timed_json(capsys, "dunwoody", *argv)
    assert seconds < seconds_bound
    assert {key: data[key] for key in expected} == expected


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


@pytest.mark.parametrize(
    "source, n",
    [("cyclic", 547), ("standard", 42855)],  # the largest n under the syllable cap
)
def test_homology_is_bounded(capsys, source, n):
    # a dense Smith form took 7.8 s on the 447 x 447 cyclic relation matrix
    # and 5.0 s on the 631 x 316 standard one; these are 547 x 547 and
    # 85713 x 42857
    data, seconds = timed_json(capsys, "homology", source, str(n), "3", "1", "1")
    assert seconds < 3.0
    h1 = seifert_h1(n, 3, 1, 1)
    assert data == {"rank": h1.rank, "torsion": list(h1.torsion)}


def test_homology_matrix_is_bounded_at_its_cap(tmp_path, capsys):
    # 100 x 100 cells x 1 bit; 120 x 120 with entries in [-9, 9], over
    # the cap, took 9.3 s
    rng = random.Random(100)
    rows = [[rng.randint(-1, 1) for _ in range(100)] for _ in range(100)]
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(rows))
    data, seconds = timed_json(capsys, "homology", "matrix", str(path))
    assert seconds < 5.0
    assert data["rank"] == 0
