"""The mutant ledger (``tools/mutants.py``) still applies to the tree.

Running the ledger takes minutes and runs nightly; this checks in well
under a second that each entry's old text still matches its file
exactly once, so a refactor cannot leave an entry that plants nothing.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "mutants.py"


def test_every_mutant_matches_exactly_once():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--check"], capture_output=True, text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_the_check_refuses_a_rotten_entry():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    ledger = mutants.load()
    assert len(ledger) >= 17
    first = ledger[0]
    assert mutants.problems([first]) == []
    gone = {**first, "old": "no such text", "killed_by": ["tests/nope.py::t"]}
    assert mutants.problems([gone, gone]) == [
        f"{first['id']}: old text matches 0 times in {first['file']}",
        f"{first['id']}: tests/nope.py::t names no test file",
        f"{first['id']}: duplicate id",
        f"{first['id']}: old text matches 0 times in {first['file']}",
        f"{first['id']}: tests/nope.py::t names no test file",
    ]
