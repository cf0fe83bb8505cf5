"""Acceptance gate: one test per shipped guarantee, each with a wall-clock
budget, printing a PASS/FAIL line so the run is auditable from the log."""

import pytest

from seifknot.verify import DEFAULT_BUDGET, GATE_GRID, _named_checks, run_named_check

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

CHECKS = _named_checks(*GATE_GRID, seed=0, budget=DEFAULT_BUDGET)


def test_every_check_has_a_bound():
    assert {name for name, _ in CHECKS} == set(TIME_BOUNDS)


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_criterion(name, check, capsys):
    result = run_named_check(name, check)
    line = (
        f"{'PASS' if result.passed else 'FAIL'} {result.name} "
        f"({result.seconds:.2f}s): {result.detail}"
    )
    with capsys.disabled():
        print(line)
    assert result.passed, result.detail
    bound = TIME_BOUNDS[name]
    assert result.seconds < bound, f"{name} took {result.seconds:.2f}s, bound {bound}s"
