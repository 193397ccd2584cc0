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

The same file pins the paper's Figure 2 under :data:`FIGURE_2`: the
``computations`` of :func:`repro.eval.run_method` for INDEX, BOUND,
BOUND+ and HYBRID on each paper-bench world, at the scales and with the
parameters ``benchmarks/conftest.py`` gives the benches
(``benchmarks/bench_fig02_single_round.py``), and Table VIII under
:data:`TABLE_8`: on the same worlds and under ``FusionConfig(max_rounds=8)``,
HYBRID's and INCREMENTAL's per-round ``computations`` and INCREMENTAL's
pass counts summed over its rounds
(``benchmarks/bench_table08_incremental.py``), and Table VII under
:data:`TABLE_7`: on the same worlds, each of the table's seven methods'
``computations`` and ``rounds`` from :func:`repro.eval.run_method`, at
the bench's sample fractions and seed
(``benchmarks/bench_table07_time.py``).

Regenerate (only together with a change that moves a count on
purpose, named in CHANGES.md)::

    PYTHONPATH=src:. python tests/make_cost_counts.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

COUNTS_PATH = Path(__file__).parent / "data" / "cost_counts.json"

#: The key of the Figure 2 pins in ``cost_counts.json``.
FIGURE_2 = "fig02_single_round"
#: Figure 2's single-round methods, in the figure's order.
FIGURE_2_METHODS = ("index", "bound", "bound+", "hybrid")
#: The key of the Table VIII pins in ``cost_counts.json``.
TABLE_8 = "table08_incremental"
#: INCREMENTAL's ``RoundStats`` counts that Table VIII sums.
TABLE_8_PASSES = ("pairs_total", "done_pass1", "done_pass2", "done_pass3", "flips")
#: The key of the Table VII pins in ``cost_counts.json``.
TABLE_7 = "table07_time"
#: Table VII's methods, in the table's order.
TABLE_7_METHODS = (
    "pairwise", "sample1", "sample2", "index", "hybrid", "incremental", "scalesample",
)


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
                "pairs": record.detection.n_pairs,
            }
            for record in fusion.rounds
        ],
        "kinds": kinds,
        "bytes_written": written,
    }


def figure_2_counts() -> dict[str, dict[str, int]]:
    """Bench world -> method -> all-round computations (Figure 2)."""
    from benchmarks.conftest import BENCH_SCALES, bench_params
    from repro.eval import run_method
    from repro.synth import make_profile

    params = bench_params.__wrapped__()
    counts = {}
    for profile, scale in BENCH_SCALES.items():
        dataset = make_profile(profile, scale=scale).dataset
        counts[profile] = {
            method: run_method(method, dataset, params).computations
            for method in FIGURE_2_METHODS
        }
    return counts


def table_8_counts() -> dict[str, dict]:
    """Bench world -> HYBRID's and INCREMENTAL's per-round computations
    and INCREMENTAL's summed pass counts (Table VIII)."""
    from benchmarks.conftest import BENCH_SCALES, bench_params
    from repro import IncrementalDetector, SingleRoundDetector, run_fusion
    from repro.fusion import FusionConfig
    from repro.synth import make_profile

    params = bench_params.__wrapped__()
    config = FusionConfig(max_rounds=8)
    counts = {}
    for profile, scale in BENCH_SCALES.items():
        dataset = make_profile(profile, scale=scale).dataset
        hybrid = run_fusion(
            dataset, params, SingleRoundDetector(params, "hybrid"), config
        )
        detector = IncrementalDetector(params)
        incremental = run_fusion(dataset, params, detector, config)
        history = detector.state.history
        counts[profile] = {
            "hybrid": [r.detection.cost.computations for r in hybrid.rounds],
            "incremental": [
                r.detection.cost.computations for r in incremental.rounds
            ],
            **{
                name: sum(getattr(stats, name) for stats in history)
                for name in TABLE_8_PASSES
            },
        }
    return counts


def table_7_counts() -> dict[str, dict[str, dict[str, int]]]:
    """Bench world -> method -> its ``computations`` and ``rounds`` over
    the whole run (Table VII), sampled as the bench samples."""
    from benchmarks.conftest import BENCH_SCALES, SAMPLE_FRACTIONS, bench_params
    from repro.eval import run_method
    from repro.synth import make_profile

    params = bench_params.__wrapped__()
    counts = {}
    for profile, scale in BENCH_SCALES.items():
        dataset = make_profile(profile, scale=scale).dataset
        runs = {
            method: run_method(
                method, dataset, params,
                sample_fraction=SAMPLE_FRACTIONS[profile], seed=11,
            )
            for method in TABLE_7_METHODS
        }
        counts[profile] = {
            method: {"computations": run.computations, "rounds": run.rounds}
            for method, run in runs.items()
        }
    return counts


def cost_counts() -> dict[str, dict]:
    """Workload name -> :func:`measure`, in registry order, then the
    Figure 2 pins under :data:`FIGURE_2`, the Table VIII pins under
    :data:`TABLE_8` and the Table VII pins under :data:`TABLE_7`."""
    from benchmarks.e2e.registry import WORKLOADS

    counts = {name: measure(name) for name in WORKLOADS}
    counts[FIGURE_2] = figure_2_counts()
    counts[TABLE_8] = table_8_counts()
    counts[TABLE_7] = table_7_counts()
    return counts


if __name__ == "__main__":
    COUNTS_PATH.write_text(json.dumps(cost_counts(), indent=1) + "\n")
    print(f"wrote {COUNTS_PATH}")
