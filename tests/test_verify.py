"""verify-all as a whole: its --json output is pinned byte for byte, and a
failure at one grid point fails only the check whose step failed."""

import hashlib

import pytest

from seifknot import verify
from seifknot.cli import main
from seifknot.presentations import seifert_parameter_grid

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
      "detail": "9 aligned-branch points, partitions identical",
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
      "detail": "(2, 3, 2, 2):S3=3, (2, 3, 2, 2):S4=33, (3, 2, 1, 1):S3=10, (3, 2, 1, 1):S4=52, (3, 5, 2, 1):S3=1, (3, 5, 2, 1):S4=1, (4, 3, 2, 1):S3=27; skipped over budget: (4, 3, 2, 1):S4",
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

GATE_GRID_SHA256 = "be76dc4286aead2c7a69d64373d6010cab27bd921353b0ef1df21cd78a0aadf6"


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


def test_gate_grid_json_is_pinned(capsys):
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

    def test(point, report):
        seen.append(point)
        if point in points:
            if exc is not None:
                raise exc
            return f"planted failure at {point}"
        return original(point, report)

    monkeypatch.setattr(verify, attr, test)
    return seen


def break_diagrams(monkeypatch, points):
    """Make building the diagram report raise at the given points; return
    the points at which a report was built."""
    original = verify.check_seifert_diagram
    seen = []

    def build(*point):
        seen.append(point)
        if point in points:
            raise RuntimeError("no diagram")
        return original(*point)

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
