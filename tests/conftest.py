"""Fixtures shared across the test modules."""

import pytest

from seifknot.verify import GATE_GRID, run_all


@pytest.fixture(scope="session")
def gate_results():
    """The results of one `run_all` on the gate grid with its defaults,
    shared by the acceptance gate and the pinned `verify-all --json` test."""
    return run_all(*GATE_GRID)
