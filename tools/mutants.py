"""The mutant ledger: planted bugs, and the tests that must catch each.

``tools/mutants.json`` lists mutants.  Each is one exact text
substitution in one source file (``file``, ``old``, ``new``), the pytest
node ids expected to kill it (``killed_by``) and the bug it stands for
(``bug``).  A mutant is killed when one of its nodes fails.  A survivor
is a finding: strengthen a referee until it kills the mutant, or argue
in the entry why the mutant is equivalent.

Usage::

    python tools/mutants.py --check     # each old text matches exactly once
    python tools/mutants.py [ID ...]    # run the ledger, or the named mutants

A run copies ``src/``, ``tests/``, ``benchmarks/`` and ``pyproject.toml``
to a temporary directory and checks that every named node passes there
unmutated.  Then, one mutant at a time, it applies the substitution,
runs only that mutant's nodes under ``HYPOTHESIS_PROFILE=ci``, and puts
the file back.  It prints each mutant's outcome and how long its nodes
ran, and exits non-zero unless every mutant is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "benchmarks", "pyproject.toml")
#: Seconds one mutant's nodes may run before the mutant counts as hung.
TIMEOUT_S = 600


def load(ledger: Path = LEDGER) -> list[dict]:
    """The ledger's entries, in file order."""
    return json.loads(ledger.read_text())


def problems(mutants: list[dict], root: Path = REPO) -> list[str]:
    """What makes the ledger unusable against the tree at ``root``: an old
    text that does not match exactly once, a no-op substitution, a
    repeated id, or a node whose test file is missing."""
    found, seen = [], set()
    for mutant in mutants:
        name = mutant["id"]
        if name in seen:
            found.append(f"{name}: duplicate id")
        seen.add(name)
        if mutant["old"] == mutant["new"]:
            found.append(f"{name}: old and new text are the same")
        path = root / mutant["file"]
        count = path.read_text().count(mutant["old"]) if path.is_file() else 0
        if count != 1:
            found.append(f"{name}: old text matches {count} times in {mutant['file']}")
        if not mutant["killed_by"]:
            found.append(f"{name}: no node is named to kill it")
        for node in mutant["killed_by"]:
            if not (root / node.split("::")[0]).is_file():
                found.append(f"{name}: {node} names no test file")
    return found


def _pytest(work: Path, nodes: list[str]) -> tuple[int, float]:
    """Run ``nodes`` in ``work`` under the ``ci`` profile, with no
    Hypothesis database carried over; returns (exit code, seconds)."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "HYPOTHESIS_PROFILE": "ci", "PYTHONPATH": "src:."}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [*command, *nodes], cwd=work, env=env, capture_output=True,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def run(mutants: list[dict]) -> int:
    """Run each mutant's nodes against it (see the module docstring)."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = REPO / name
            if source.is_dir():
                shutil.copytree(
                    source, work / name,
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
                )
            else:
                shutil.copy2(source, work / name)
        nodes = sorted({node for mutant in mutants for node in mutant["killed_by"]})
        code, seconds = _pytest(work, nodes)
        print(f"unmutated: {len(nodes)} nodes, exit {code}, {seconds:.1f} s")
        if code != 0:
            print("the named nodes must pass unmutated; nothing was run")
            return 2
        survivors = 0
        for mutant in mutants:
            path = work / mutant["file"]
            original = path.read_text()
            path.write_text(original.replace(mutant["old"], mutant["new"]))
            try:
                code, seconds = _pytest(work, mutant["killed_by"])
            finally:
                path.write_text(original)
            # Exit 1 is a failed test; anything else (no tests collected,
            # a usage error, a hang) proves nothing about the referee.
            outcome = "killed" if code == 1 else f"SURVIVED (exit {code})"
            survivors += code != 1
            print(f"{mutant['id']:<34} {outcome:<20} {seconds:7.1f} s", flush=True)
        print(f"{len(mutants) - survivors}/{len(mutants)} killed")
        return 1 if survivors else 0


def main(argv: list[str]) -> int:
    mutants = load()
    found = problems(mutants)
    for line in found:
        print(line)
    if argv == ["--check"] or found:
        if not found:
            print(f"ledger: {len(mutants)} mutants, each old text matches once")
        return 1 if found else 0
    if argv:
        unknown = set(argv) - {mutant["id"] for mutant in mutants}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}")
            return 2
        mutants = [mutant for mutant in mutants if mutant["id"] in argv]
    return run(mutants)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
