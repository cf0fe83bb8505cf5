"""verify-all as a whole: its --json output is pinned byte for byte, and a
failure at one grid point fails only the check whose step failed."""

import hashlib
import json
import re

import pytest

from seifknot import cli, verify
from seifknot.cli import main
from seifknot.freegroup import seifert_word
from seifknot.presentations import seifert_cyclic_presentation, seifert_parameter_grid
from seifknot.verify import DEFAULT_BUDGET, GATE_GRID

SMALL_GRID_JSON = """\
{
  "all_passed": true,
  "checks": [
    {
      "detail": "Delta(t) = 1 - 4t + 5t^2 - 4t^3 + t^4",
      "name": "alexander-example",
      "passed": true
    },
    {
      "detail": "15 parameter tuples, 50 identities",
      "name": "tietze-grid",
      "passed": true
    },
    {
      "detail": "15 parameter tuples, H1 equal both routes",
      "name": "homology-grid",
      "passed": true
    },
    {
      "detail": "15 diagrams, all (1,n,n,1) with matching relators",
      "name": "diagram-grid",
      "passed": true
    },
    {
      "detail": "9 aligned-branch points, slot pairs identical",
      "name": "identification-rules",
      "passed": true
    },
    {
      "detail": "3626 reductions agree, 2314 coprimality rejections",
      "name": "lens-closed-forms",
      "passed": true
    },
    {
      "detail": "15 covers consistent, 36 coincident pairs agree",
      "name": "parameter-consistency",
      "passed": true
    },
    {
      "detail": "|Delta(-1)| = 15, H1 = Z/15, circulant order 15",
      "name": "determinant-bridge",
      "passed": true
    },
    {
      "detail": "(2, 3, 2, 2):S3=3, (2, 3, 2, 2):S4=33, (3, 2, 1, 1):S3=10, (3, 2, 1, 1):S4=52, (3, 5, 2, 1):S3=1, (3, 5, 2, 1):S4=1, (4, 3, 2, 1):S3=27, (4, 3, 2, 1):S4=561",
      "name": "hom-counts",
      "passed": true
    },
    {
      "detail": "10000 word cases, 1000 certificates, 1000 calculus identities (seed 0)",
      "name": "property-suite",
      "passed": true
    }
  ]
}
"""

GATE_GRID_SHA256 = "9615d1e3cec6e9baffe7867de31944243376a230c9b65de3c56c904518697cab"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_small_grid_json_is_pinned(capsys):
    code, out, err = run_cli(
        capsys, "--json", "verify-all", "--nmax", "3", "--pmax", "4", "--lmax", "2"
    )
    assert (code, err) == (0, "")
    assert out == SMALL_GRID_JSON


def test_gate_grid_json_is_pinned(capsys, monkeypatch, gate_results):
    # the gate grid runs once per session (conftest.py); the CLI prints it
    def shared_run(*args, **kwargs):
        n_max, p_max, l_max = GATE_GRID
        assert args == ()
        assert kwargs == dict(
            n_max=n_max, p_max=p_max, l_max=l_max, seed=0, budget=DEFAULT_BUDGET
        )
        return gate_results

    monkeypatch.setattr(cli, "run_all", shared_run)
    code, out, _ = run_cli(capsys, "--json", "verify-all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GATE_GRID_SHA256


SMALL_GRID = (3, 4, 2)


def fail_at(monkeypatch, attr, points, exc=None):
    """Make the grid test `verify.<attr>` fail at the given points (raising
    `exc` if given, else returning a failure text); return the points at
    which the test ran."""
    original = getattr(verify, attr)
    seen = []

    def test(at):
        seen.append(at.point)
        if at.point in points:
            if exc is not None:
                raise exc
            return f"planted failure at {at.point}"
        return original(at)

    monkeypatch.setattr(verify, attr, test)
    return seen


def break_diagrams(monkeypatch, points):
    """Make building the diagram of a SMALL_GRID point raise at the given
    points; return the points at which a diagram was built."""
    original = verify.check_seifert_diagram
    point_of = {seifert_word(*point): point for point in seifert_parameter_grid(*SMALL_GRID)}
    seen = []

    def build(cover, word):
        point = point_of[word]
        seen.append(point)
        if point in points:
            raise RuntimeError("no diagram")
        return original(cover, word)

    monkeypatch.setattr(verify, "check_seifert_diagram", build)
    return seen


@pytest.fixture
def quick_plain_checks(monkeypatch):
    """Stand-ins for the slow checks that do not walk the grid."""
    for attr in ("check_lens_closed_forms", "check_hom_counts", "check_property_suite"):
        monkeypatch.setattr(verify, attr, lambda *args: (True, "stand-in"))


def outcomes(results):
    return {r.name: (r.passed, r.detail) for r in results}


def test_an_exception_at_one_point_fails_only_its_check(monkeypatch, quick_plain_checks):
    fail_at(monkeypatch, "_homology_at", [(3, 3, 1, 2)], ZeroDivisionError("planted"))
    results = verify.run_all(*SMALL_GRID)
    assert len({r.name for r in results}) == len(results) == 10
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {"homology-grid": "ZeroDivisionError: planted"}


def test_a_check_reports_its_first_failing_point_and_stops(monkeypatch, quick_plain_checks):
    grid = seifert_parameter_grid(*SMALL_GRID)
    first, later = grid[4], grid[9]
    seen = fail_at(monkeypatch, "_cover_at", [later, first])
    result = outcomes(verify.run_all(*SMALL_GRID))
    assert result["parameter-consistency"] == (False, f"planted failure at {first}")
    assert seen == grid[:5]
    assert all(passed for name, (passed, _) in result.items() if name != "parameter-consistency")


@pytest.mark.parametrize(
    "point, failing",
    [
        ((3, 3, 2, 1), {"diagram-grid"}),  # p < 2q: identification-rules skips it
        ((3, 4, 1, 1), {"diagram-grid", "identification-rules"}),
    ],
    ids=["crossed", "aligned"],
)
def test_a_diagram_that_cannot_be_built_fails_the_checks_reading_it(
    monkeypatch, quick_plain_checks, point, failing
):
    break_diagrams(monkeypatch, [point])
    result = outcomes(verify.run_all(*SMALL_GRID))
    assert {name for name, (passed, _) in result.items() if not passed} == failing
    for name in failing:
        assert result[name] == (False, "RuntimeError: no diagram")


def test_one_diagram_per_grid_point(monkeypatch, quick_plain_checks):
    seen = break_diagrams(monkeypatch, [])
    assert all(r.passed for r in verify.run_all(*SMALL_GRID))
    assert seen == seifert_parameter_grid(*SMALL_GRID)


TEXT_LINE = re.compile(r"(PASS|FAIL) (\S+) \(\d+\.\d\ds\): (.*)")
SMALL_GRID_ARGS = ("verify-all", "--nmax", "3", "--pmax", "4", "--lmax", "2")


def test_small_grid_text_matches_json(capsys, quick_plain_checks):
    code, out, err = run_cli(capsys, "--json", *SMALL_GRID_ARGS)
    assert (code, err) == (0, "")
    expected = json.loads(out)["checks"]
    code, out, err = run_cli(capsys, *SMALL_GRID_ARGS)
    assert (code, err) == (0, "")
    *lines, summary = out.splitlines()
    parsed = [TEXT_LINE.fullmatch(line).groups() for line in lines]
    assert parsed == [("PASS", c["name"], c["detail"]) for c in expected]
    assert len(parsed) == 10
    assert summary == "10/10 checks passed"


def test_text_output_names_a_failure(capsys, monkeypatch, quick_plain_checks):
    fail_at(monkeypatch, "_homology_at", [(3, 3, 1, 2)])
    code, out, err = run_cli(capsys, *SMALL_GRID_ARGS)
    assert (code, err) == (1, "")
    *lines, summary = out.splitlines()
    flags = [TEXT_LINE.fullmatch(line).groups() for line in lines]
    assert [flag for flag, _, _ in flags].count("PASS") == 9
    assert ("FAIL", "homology-grid", "planted failure at (3, 3, 1, 2)") in flags
    assert summary == "9/10 checks passed (failure)"


def test_hom_counts_backtracks_only_on_the_cyclic_side(monkeypatch):
    searched, fibred = [], []

    def search(pres, elements, budget):
        searched.append(pres)
        return original_search(pres, elements, budget)

    def fibred_count(*args):
        fibred.append(args[:4])
        return original_fibred(*args)

    original_search, original_fibred = verify.count_homomorphisms, verify.count_seifert_homomorphisms
    monkeypatch.setattr(verify, "count_homomorphisms", search)
    monkeypatch.setattr(verify, "count_seifert_homomorphisms", fibred_count)
    assert verify.check_hom_counts()[0]
    points = [point for point in verify.HOM_COUNT_POINTS for _ in ("S3", "S4")]
    assert searched == [seifert_cyclic_presentation(*point) for point in points]
    assert fibred == points


def test_a_small_budget_still_reports_skips(capsys, monkeypatch):
    for attr in ("check_lens_closed_forms", "check_property_suite"):
        monkeypatch.setattr(verify, attr, lambda *args: (True, "stand-in"))
    code, out, err = run_cli(
        capsys, "--json", "--budget", "1000", "verify-all", "--nmax", "2", "--pmax", "3", "--lmax", "2"
    )
    assert (code, err) == (0, "")
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    # 24^3 (S4, three generators) and 6^4 (S3, four) are over 1000
    assert details["hom-counts"] == (
        "(2, 3, 2, 2):S3=3, (2, 3, 2, 2):S4=33, (3, 2, 1, 1):S3=10, (3, 5, 2, 1):S3=1; "
        "skipped over budget: (3, 2, 1, 1):S4, (3, 5, 2, 1):S4, (4, 3, 2, 1):S3, (4, 3, 2, 1):S4"
    )
