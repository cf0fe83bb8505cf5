"""Acceptance gate: one test per shipped guarantee, each with a wall-clock
budget, printing a PASS/FAIL line so the run is auditable from the log."""

import pytest

from seifknot.verify import GATE_GRID, run_all

TIME_BOUNDS = {
    "alexander-example": 1.0,
    "tietze-grid": 5.0,
    "homology-grid": 5.0,
    "diagram-grid": 10.0,
    "identification-rules": 5.0,
    "lens-closed-forms": 5.0,
    "parameter-consistency": 1.0,
    "determinant-bridge": 1.0,
    "hom-counts": 60.0,
    "property-suite": 30.0,
}


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in run_all(*GATE_GRID)}


def test_every_check_has_a_bound(results):
    assert set(results) == set(TIME_BOUNDS)


@pytest.mark.parametrize("name", list(TIME_BOUNDS))
def test_criterion(name, results, capsys):
    result = results[name]
    line = (
        f"{'PASS' if result.passed else 'FAIL'} {result.name} "
        f"({result.seconds:.2f}s): {result.detail}"
    )
    with capsys.disabled():
        print(line)
    assert result.passed, result.detail
    bound = TIME_BOUNDS[name]
    assert result.seconds < bound, f"{name} took {result.seconds:.2f}s, bound {bound}s"
