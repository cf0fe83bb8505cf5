"""Each demo prints exactly its recorded transcript.

The transcripts in tests/data/demos were captured from the demos as they
are, so any change to what a demo prints shows up here. After an intended
change, re-record one with `PYTHONPATH=src python demos/<name>.py >
tests/data/demos/<name>.txt`.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))
TRANSCRIPTS = ROOT / "tests" / "data" / "demos"


def test_every_demo_has_a_transcript():
    assert DEMOS == sorted(path.stem for path in TRANSCRIPTS.glob("*.txt"))
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_transcript(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (TRANSCRIPTS / f"{demo}.txt").read_text(encoding="utf-8")
