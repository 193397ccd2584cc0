"""Simulated-cluster benchmark: the remote executor on 1/2/4 workers.

Companion to ``bench_parallel_engine.py`` one layer out: instead of an
in-process pool this spawns **separate worker interpreters**
(:class:`repro.cluster.LocalCluster`) and drives them over real TCP
sockets — the same path a multi-host deployment takes, minus the
network.  Shared memory never enters the picture: the remote path ships
the world over the wire by construction, so the measurement is an
honest preview of multi-host behaviour (localhost loopback stands in
for the fabric).

Measured per world (a dense synthetic world and a 10k-source Zipf
sparse world):

* INDEX detection wall-clock at a fixed partition count on 1-, 2- and
  4-worker clusters, plus the serial in-process time for context;
* per-cluster wire accounting (world broadcast, task, result bytes);
* the broadcast-once property across a 3-round fusion run (one full
  world frame per worker per session, diff-only updates after).

Correctness is the hard gate recorded in ``check``: every cluster size
must reproduce the serial verdicts **bit-identically** (fixed partition
count + deterministic LPT scheduling make worker count invisible to the
merge), and the fusion run must not re-broadcast the world.  Wall-clock
*scaling* depends on physical cores — a 1-core container can't speed
anything up by adding workers — so the 4-worker >= 2x floor is recorded
in the artifact's ``floors`` section together with the core count it
needs (``min_cpus``), and ``check_regression.py`` applies it only on
machines that can express it.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]
        [--output PATH]

``--smoke`` shrinks the worlds for CI budgets; ``--output`` redirects
the artifact so the committed baseline stays untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time
from pathlib import Path

from repro.cluster import LocalCluster
from repro.conformance.generators import RandomChooser, large_sparse_world
from repro.core import CopyParams, InvertedIndex, SingleRoundDetector
from repro.fusion import run_fusion, vote_probabilities
from repro.fusion.pipeline import FusionConfig
from repro.fusion.workspace import FusionWorkspace
from repro.parallel import detect_hybrid_parallel, detect_index_parallel
from repro.synth.generator import GeneratorConfig, generate

DEFAULT_OUTPUT = Path(__file__).parent / "output" / "BENCH_cluster.json"

#: The scaling floor ``check_regression.py`` enforces — and the minimum
#: physical core count on which enforcing it is meaningful.
FLOORS = {"speedup_4w_vs_1w": 2.0, "min_cpus": 4}

WORKER_COUNTS = (1, 2, 4)

#: Partition count is fixed well above the largest cluster so the merge
#: tree — and therefore every float — is identical at every size.
N_PARTITIONS = 8

DENSE_CONFIG = GeneratorConfig(
    n_items=400,
    n_independent_sources=200,
    coverage_model="uniform",
    coverage_range=(0.3, 0.6),
    n_copier_groups=4,
    copiers_per_group=3,
)
SMOKE_DENSE_CONFIG = GeneratorConfig(
    n_items=150,
    n_independent_sources=90,
    coverage_model="uniform",
    coverage_range=(0.3, 0.6),
    n_copier_groups=3,
    copiers_per_group=2,
)

SPARSE_WORLD = ("zipf_10k", 10_000, 400, 0.8)
SMOKE_SPARSE_WORLD = ("zipf_2k", 2_000, 300, 0.8)


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bit_identical(result, reference) -> bool:
    return (
        result.decisions == reference.decisions
        and result.cost.values_examined == reference.cost.values_examined
        and result.cost.pairs_considered == reference.cost.pairs_considered
    )


def _dense_world(smoke: bool):
    world = generate(SMOKE_DENSE_CONFIG if smoke else DENSE_CONFIG)
    dataset = world.dataset
    return dataset, vote_probabilities(dataset), [0.8] * dataset.n_sources


def _sparse_world(smoke: bool):
    label, n_sources, n_items, exponent = (
        SMOKE_SPARSE_WORLD if smoke else SPARSE_WORLD
    )
    world = large_sparse_world(
        RandomChooser(random.Random(1205)),
        n_sources=n_sources,
        n_items=n_items,
        zipf_exponent=exponent,
        coverage=1.0,
    )
    dataset, _, _ = world.materialize()
    return label, dataset, vote_probabilities(dataset), [0.8] * dataset.n_sources


def _bench_world(dataset, probabilities, accuracies, params) -> dict:
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)

    def run_remote(executor):
        return detect_index_parallel(
            dataset,
            probabilities,
            accuracies,
            params,
            n_partitions=N_PARTITIONS,
            strategy="work",
            executor="remote",
            reduce="tree",
            index=index,
            cluster=executor,
        )

    serial = detect_index_parallel(
        dataset,
        probabilities,
        accuracies,
        params,
        n_partitions=N_PARTITIONS,
        strategy="work",
        executor="serial",
        reduce="tree",
        index=index,
    )
    row: dict = {
        "world": {
            "n_sources": dataset.n_sources,
            "n_items": dataset.n_items,
            "index_entries": index.n_entries,
        },
        "serial_seconds": _best_of(
            lambda: detect_index_parallel(
                dataset,
                probabilities,
                accuracies,
                params,
                n_partitions=N_PARTITIONS,
                strategy="work",
                executor="serial",
                reduce="tree",
                index=index,
            )
        ),
        "workers": {},
        "bit_identical": True,
    }
    for n_workers in WORKER_COUNTS:
        with LocalCluster(n_workers) as cluster:
            with cluster.executor() as executor:
                # The untimed first run doubles as warmup (connection
                # setup, the one-time world broadcast) and as the
                # correctness probe.
                result = run_remote(executor)
                identical = _bit_identical(result, serial)
                row["bit_identical"] = row["bit_identical"] and identical
                seconds = _best_of(lambda: run_remote(executor))
                stats = executor.stats
                row["workers"][str(n_workers)] = {
                    "seconds": seconds,
                    "bit_identical": identical,
                    "wire_bytes": {
                        "world": stats.broadcast_bytes,
                        "updates": stats.update_bytes,
                        "tasks": stats.task_bytes,
                        "results": stats.result_bytes,
                    },
                    "busy_seconds": round(
                        sum(w.busy_seconds for w in stats.workers.values()), 4
                    ),
                }
    one = row["workers"]["1"]["seconds"]
    for n_workers in WORKER_COUNTS[1:]:
        key = str(n_workers)
        row[f"speedup_{key}w_vs_1w"] = one / row["workers"][key]["seconds"]
    return row


def _fusion_broadcast_once(dataset, params) -> dict:
    """3-round remote fusion: the world must ship in full exactly once."""
    with LocalCluster(2) as cluster:
        spec = ",".join(cluster.addresses)
        with FusionWorkspace(dataset, params) as workspace:
            detector = SingleRoundDetector(
                params,
                method="index",
                n_partitions=N_PARTITIONS,
                executor="remote",
                reduce="tree",
                partition_by="work",
                cluster=spec,
            )
            run_fusion(
                dataset,
                params,
                detector=detector,
                config=FusionConfig(max_rounds=3, min_rounds=3),
                workspace=workspace,
            )
            stats = workspace.executor("remote", spec).stats
            worlds = [w.worlds for w in stats.workers.values()]
            updates = [w.updates for w in stats.workers.values()]
            return {
                "rounds": stats.rounds,
                "world_frames_per_worker": worlds,
                "update_frames_per_worker": updates,
                "world_bytes": stats.broadcast_bytes,
                "update_bytes": stats.update_bytes,
                "passed": all(w == 1 for w in worlds)
                and all(u >= 1 for u in updates),
            }


def run(smoke: bool = False) -> dict:
    params = CopyParams(backend="numpy")
    dense_dataset, dense_probs, dense_accs = _dense_world(smoke)
    sparse_label, sparse_dataset, sparse_probs, sparse_accs = _sparse_world(
        smoke
    )

    worlds = {
        "dense": _bench_world(dense_dataset, dense_probs, dense_accs, params),
        sparse_label: _bench_world(
            sparse_dataset, sparse_probs, sparse_accs, params
        ),
    }

    # HYBRID parity rides along as a pure correctness probe: the suffix
    # partitions flow through the same remote map/merge path.
    with LocalCluster(2) as cluster, cluster.executor() as executor:
        hybrid_kwargs = dict(
            n_partitions=4, reduce="tree", partition_by="work"
        )
        hybrid_serial = detect_hybrid_parallel(
            dense_dataset, dense_probs, dense_accs, params, **hybrid_kwargs
        )
        hybrid_remote = detect_hybrid_parallel(
            dense_dataset,
            dense_probs,
            dense_accs,
            params,
            executor="remote",
            cluster=executor,
            **hybrid_kwargs,
        )
        hybrid_identical = hybrid_remote.decisions == hybrid_serial.decisions

    broadcast_once = _fusion_broadcast_once(dense_dataset, params)

    passed = (
        all(row["bit_identical"] for row in worlds.values())
        and hybrid_identical
        and broadcast_once["passed"]
    )
    return {
        "benchmark": "cluster",
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "floors": dict(FLOORS),
        "n_partitions": N_PARTITIONS,
        "worlds": worlds,
        "hybrid_bit_identical": hybrid_identical,
        "broadcast_once": broadcast_once,
        "check": {
            "target": (
                "every cluster size reproduces the serial verdicts "
                "bit-identically (INDEX and HYBRID) and a 3-round fusion "
                "run ships the full world exactly once per worker"
            ),
            "passed": passed,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small worlds for CI smoke runs"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="artifact path"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"cpu_count={report['platform']['cpu_count']} "
        f"(scaling floor applies from {report['floors']['min_cpus']} cores)"
    )
    for label, row in report["worlds"].items():
        world = row["world"]
        print(
            f"{label}: {world['n_sources']:,} sources, "
            f"{world['index_entries']:,} entries, "
            f"serial={row['serial_seconds']:.3f}s"
        )
        for n_workers, timing in row["workers"].items():
            wire = timing["wire_bytes"]
            print(
                f"  {n_workers} worker(s): {timing['seconds']:.3f}s "
                f"(world {wire['world']:,} B, tasks {wire['tasks']:,} B, "
                f"results {wire['results']:,} B)"
            )
        for key in sorted(k for k in row if k.startswith("speedup_")):
            print(f"  {key} = {row[key]:.2f}x")
    once = report["broadcast_once"]
    print(
        f"broadcast-once over {once['rounds']} fusion rounds: "
        f"world x{once['world_frames_per_worker']} + "
        f"{once['update_bytes']:,} B of updates -> passed={once['passed']}"
    )
    print(
        f"check: {report['check']['target']} -> "
        f"passed={report['check']['passed']}"
    )
    print(f"artifact -> {args.output}")
    return 0 if report["check"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
