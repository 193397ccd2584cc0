"""The paper's cost model on the benchmark's worlds (and its regen entry point).

``tests/data/cost_counts.json`` pins, for each ``benchmarks/e2e``
registry workload at its ``tiny`` size, what one in-process
:func:`repro.run_fusion` with a verdict store costs: per round the
detection's ``computations``, ``values_examined`` and scored pairs, the
number of rounds, the kind of every published snapshot and the bytes
they take on disk.  All of it is a deterministic function of the world
and ``CopyParams``: no clock, no session id and no host reaches a count
or a snapshot byte.  ``tests/test_cost_model.py`` recomputes and
compares exactly, so a change that doubles the scan work, adds a round
or writes a full where a delta belonged fails tier-1.

Each workload runs its own detector; ``stream_book``, which has none
(``serve`` runs it), runs INDEX, as every ``serve`` epoch does.

Regenerate (only together with a change that moves a count on
purpose, named in CHANGES.md)::

    PYTHONPATH=src:. python tests/make_cost_counts.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

COUNTS_PATH = Path(__file__).parent / "data" / "cost_counts.json"


def measure(name: str) -> dict:
    """One tiny registry workload's counts (see the module docstring)."""
    from benchmarks.e2e.registry import PARAMS, WORKLOADS
    from repro import CopyParams, SingleRoundDetector, run_fusion
    from repro.serving import VerdictStore

    workload = WORKLOADS[name]
    params = CopyParams(**PARAMS)
    if workload.detector is None:
        detector = SingleRoundDetector(params, "index")
    else:
        detector = workload.detector(params)
    dataset = workload.world(True).dataset
    with tempfile.TemporaryDirectory() as tmp:
        store = VerdictStore(tmp)
        fusion = run_fusion(dataset, params, detector, snapshot_store=store)
        ids = store.snapshot_ids()
        kinds = [store.load(i)[0]["kind"] for i in ids]
        written = sum(store.snapshot_path(i).stat().st_size for i in ids)
    return {
        "rounds": [
            {
                "computations": record.detection.cost.computations,
                "values_examined": record.detection.cost.values_examined,
                "pairs": len(record.detection.decisions),
            }
            for record in fusion.rounds
        ],
        "kinds": kinds,
        "bytes_written": written,
    }


def cost_counts() -> dict[str, dict]:
    """Workload name -> :func:`measure`, in registry order."""
    from benchmarks.e2e.registry import WORKLOADS

    return {name: measure(name) for name in WORKLOADS}


if __name__ == "__main__":
    COUNTS_PATH.write_text(json.dumps(cost_counts(), indent=1) + "\n")
    print(f"wrote {COUNTS_PATH}")
