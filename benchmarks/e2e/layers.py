"""Direct probes of the layers no end-to-end path isolates: parallel, cluster.

Both run on the ``batch_book_par`` world in the traced run only.
"""

from __future__ import annotations

import time
from pathlib import Path

from pipeline import verdict_digest
from registry import PARAMS, hybrid_partitioned
from stats import median

#: (label, n_partitions, executor) — every scan the parallel engine offers
#: on one host, against the unpartitioned serial scan as the base.
SCANS = (
    ("serial_p1", 1, "serial"),
    ("serial_p2", 2, "serial"),
    ("threads_p2", 2, "threads"),
    ("processes_p2", 2, "processes"),
)
CALLS = 3


def parallel_scans(csv_path: Path) -> dict:
    """``detect_hybrid_parallel`` on round-1 inputs, median of ``CALLS`` each.

    One workspace is shared, so pools and the shm block persist across the
    calls of a configuration: its first call minus the later ones is the
    pool + shared-memory set-up a fusion run pays once.
    """
    from repro import CopyParams, InvertedIndex
    from repro.data import load_claims
    from repro.fusion import FusionWorkspace
    from repro.fusion.accu import value_probabilities
    from repro.parallel import detect_hybrid_parallel

    dataset = load_claims(csv_path)
    params = CopyParams(**PARAMS)
    accuracies = [0.8] * dataset.n_sources
    probabilities = value_probabilities(dataset, accuracies, params)
    out = {}
    with FusionWorkspace(dataset, params) as workspace:
        index = InvertedIndex.build(
            dataset, probabilities, accuracies, params,
            shared_items=workspace.shared_items,
        )
        index.set_columnar_entries(workspace.columnar_for_index(index))
        for label, n_partitions, executor in SCANS:
            took = []
            for _ in range(CALLS + 1):
                start = time.perf_counter()
                detect_hybrid_parallel(
                    dataset, probabilities, accuracies, params,
                    n_partitions=n_partitions, executor=executor, index=index,
                    reduce="tree", workspace=workspace,
                )
                took.append(time.perf_counter() - start)
            out[f"parallel.scan_s.{label}"] = median(took[1:])
            if label == "processes_p2":
                out["parallel.first_call_extra_s"] = took[0] - median(took[1:])
    out["parallel.speedup_processes_p2"] = (
        out["parallel.scan_s.serial_p1"] / out["parallel.scan_s.processes_p2"]
    )
    return out


def partitioned_digest(csv_path: Path, n_partitions: int, executor: str, cluster=None) -> str:
    """Digest of (copying pairs, truths) after a partitioned HYBRID fusion."""
    from repro import CopyParams, run_fusion
    from repro.data import load_claims

    dataset = load_claims(csv_path)
    params = CopyParams(**PARAMS)
    detector = hybrid_partitioned(params, n_partitions, executor, cluster=cluster)
    return verdict_digest(dataset, run_fusion(dataset, params, detector))[0]


def cluster_bytes(csv_path: Path) -> tuple[dict, bool]:
    """``ClusterStats`` of a fusion run on a two-worker ``LocalCluster``.

    Counts only: driver + 2 workers exceed this box's cores, so wall clock
    here says nothing.  Three partitions give both workers a suffix task.
    Returns the counters and whether verdicts and truths equal the same
    partitioned run on the serial executor.
    """
    from repro.cluster import LocalCluster

    with LocalCluster(2) as cluster:
        executor = cluster.executor()
        remote = partitioned_digest(csv_path, 3, "remote", cluster=executor)
        stats = executor.stats
        counters = {
            "cluster.broadcast_bytes": stats.broadcast_bytes,
            "cluster.update_bytes": stats.update_bytes,
            "cluster.task_bytes": stats.task_bytes,
            "cluster.result_bytes": stats.result_bytes,
            "cluster.rounds": stats.rounds,
            "cluster.retries": stats.retries,
        }
    return counters, remote == partitioned_digest(csv_path, 3, "serial")
