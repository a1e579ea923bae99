"""Smoke tests: every example script runs to completion.

Examples are part of the public surface — they must keep working as the
library evolves.  Each is executed in-process (imported as __main__-style
module) so failures carry full tracebacks.
"""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    temp = Path(tempfile.gettempdir())
    left_before = set(temp.glob("fleet-demo-*"))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    # An example cleans up after itself: no new scratch directory stays.
    assert set(temp.glob("fleet-demo-*")) <= left_before


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "three_way_cadillac",
        "two_leader_ring",
        "kidney_exchange",
        "adversarial_demo",
        "sharded_commit",
        "fleet_quickstart",
    } <= names
