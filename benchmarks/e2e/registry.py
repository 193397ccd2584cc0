"""Workload and metric registry — the one table ``BENCHMARK.json`` mirrors.

Nothing here imports :mod:`repro` at module level: the batch child stamps
its clock around ``import repro`` to report ``proc.import_s``, so every
world/detector factory imports lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Model parameters shared by every workload (the CLI's ``serve`` gets the
#: same values as flags).
PARAMS = dict(alpha=0.2, s=0.8, n=50, backend="numpy", pair_layout="auto")

#: Skewed reads per cold-LRU pass (80% hot tenth / 15% observed / 5% never).
N_READS = 25_000
#: Reads per timed block; a block median keeps timer cost out of the read.
READ_BLOCK = 100
#: The read phase repeats its pass of ``N_READS`` (cold LRU each time) for
#: this long and reports the best pass (see the README's noise protocol).
READ_PHASE_S = 0.5

#: Open-loop stream feed: one POST of ``POST_CLAIMS`` claims every
#: ``POST_PERIOD_S`` seconds.  The period is about four epochs long, so each
#: POST gets an epoch of its own and freshness is debounce + one epoch — at a
#: period near the epoch time freshness instead measures how epochs happen to
#: line up with POSTs (1.5 epochs or 2.5, flipping with every 10% of noise).
POST_CLAIMS = 10
POST_PERIOD_S = 1.0
#: One GET /verdict this long after each POST was due: while its epoch runs.
READ_OFFSETS_S = (0.12, 0.24)
#: A yardstick pass starts only while the period has this much left.
YARDSTICK_ROOM_S = 0.25
#: The base ledger is the world minus this many claims, whatever ``--seconds``
#: is, so epoch cost (O(ledger)) does not depend on the run length.
STREAM_FEED_RESERVE = 800


def _wide_world(tiny: bool):
    from repro import GeneratorConfig, generate

    return generate(
        GeneratorConfig(
            n_items=60 if tiny else 300,
            n_independent_sources=120 if tiny else 2100,
            coverage_model="zipf",
            coverage_range=(0.003, 0.05),
            zipf_exponent=1.0,
            n_copier_groups=2 if tiny else 8,
            copiers_per_group=3,
            seed=7,
        )
    )


def _stock_world(tiny: bool):
    from repro import make_profile

    return make_profile("stock_1day", scale=0.02 if tiny else 0.1)


def _book_par_world(tiny: bool):
    from repro import make_profile

    return make_profile("book_cs", scale=0.1 if tiny else 0.75)


def _stream_world(tiny: bool):
    from repro import make_profile

    return make_profile("book_cs", scale=0.12 if tiny else 0.4)


def _hybrid(params):
    from repro import SingleRoundDetector

    return SingleRoundDetector(params, "hybrid")


def _incremental(params):
    from repro import IncrementalDetector

    return IncrementalDetector(params)


def hybrid_partitioned(params, n_partitions, executor, cluster=None):
    """Partitioned HYBRID with a tree reduce, on the named executor."""
    from repro import SingleRoundDetector

    return SingleRoundDetector(
        params,
        "hybrid",
        n_partitions=n_partitions,
        executor=executor,
        reduce="tree",
        cluster=cluster,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``world(tiny)`` builds the pinned synthetic world (its shape is part of
    the workload definition, like ``n_items``); ``--seed`` drives what the
    benchmark itself randomises — CSV row order (hence every interned id),
    the read stream, the base/feed split and feed order.  ``csv_sha256``
    pins the canonical (unshuffled) claims CSV of the full-size world.
    """

    name: str
    kind: str  # "batch" | "stream"
    why: str
    world: Callable[[bool], object]
    detector: Callable[[object], object] | None
    csv_sha256: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch_wide",
            "batch",
            "2,124 Zipf sources: every kernel takes the sparse pair layout; "
            "pair-space work and snapshot publishing dominate, loading is ~0",
            _wide_world,
            _hybrid,
            "a3e81cb2211df8a9e1726343612c044bbe05074b68863be431ca2473e7703ee6",
        ),
        Workload(
            "batch_stock",
            "batch",
            "55 dense sources x 1,600 items: CSV load, index build and long "
            "bound scans dominate, publishing is ~0, rounds >= 3 run INCREMENTAL",
            _stock_world,
            _incremental,
            "e0dfa6d32331e710e900b18a793193a6f83cb5bd7337102b4fd38b632c0d32a1",
        ),
        Workload(
            "batch_book_par",
            "batch",
            "the only workload where repro.parallel works (2 partitions, process "
            "pool, shm broadcast, tree reduce) on a dense-layout book world",
            _book_par_world,
            lambda params: hybrid_partitioned(params, 2, "processes"),
            "65dc8802c1b71b2d34891d43623ed5d3255d390d75bdd2f64418e3cdcce3636e",
        ),
        Workload(
            "stream_book",
            "stream",
            "serve subprocess under an open-loop HTTP feed (10 claims per second) "
            "beside reads: every POST costs one epoch that re-fuses the ledger, "
            "publishes, refreshes",
            _stream_world,
            None,
            "c81e1c8f5a85b73a9174af8abf7c441b949ae2bac4336f2c775b71f081d6105f",
        ),
    )
}

#: (name, unit, better, bound).  Every workload reports every row; see the
#: README for what each means on the batch path and on the stream path.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("time_to_verdicts_s", "s", "lower", 0.25),
    ("read_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("snapshot_mb", "MB", "lower", 0.05),
)

#: (name, unit, better).  A layer a workload does not execute reports 0.
PER_LAYER = (
    ("proc.import_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.claims", "count", "lower"),
    ("data.ledger_s_p50", "s", "lower"),
    ("core.index_build_s", "s", "lower"),
    ("core.detect_s", "s", "lower"),
    ("core.scan_self_s", "s", "lower"),
    ("core.round_first_s", "s", "lower"),
    ("core.round_last_s", "s", "lower"),
    ("core.pairs_scored", "count", "lower"),
    ("core.early_share", "ratio", "higher"),
    ("core.computations", "count", "lower"),
    ("core.values_examined", "count", "lower"),
    ("parallel.detect_s", "s", "lower"),
    ("parallel.scan_s.serial_p1", "s", "lower"),
    ("parallel.scan_s.serial_p2", "s", "lower"),
    ("parallel.scan_s.threads_p2", "s", "lower"),
    ("parallel.scan_s.processes_p2", "s", "lower"),
    ("parallel.speedup_processes_p2", "ratio", "higher"),
    ("parallel.first_call_extra_s", "s", "lower"),
    ("cluster.broadcast_bytes", "bytes", "lower"),
    ("cluster.update_bytes", "bytes", "lower"),
    ("cluster.task_bytes", "bytes", "lower"),
    ("cluster.result_bytes", "bytes", "lower"),
    ("cluster.rounds", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("fusion.run_s", "s", "lower"),
    ("fusion.truth_update_s", "s", "lower"),
    ("fusion.rounds", "count", "lower"),
    ("fusion.self_s", "s", "lower"),
    ("serving.publish_s", "s", "lower"),
    ("serving.snapshots_full", "count", "lower"),
    ("serving.snapshots_delta", "count", "higher"),
    ("serving.bytes_written", "bytes", "lower"),
    ("serving.reader_open_s", "s", "lower"),
    ("serving.refresh_s_p50", "s", "lower"),
    ("serving.read_p50_us", "us", "lower"),
    ("serving.read_p99_us", "us", "lower"),
    ("serving.reads_per_s", "1/s", "higher"),
    ("serving.lru_hit_share", "ratio", "higher"),
    ("streaming.fresh_p50_ms", "ms", "lower"),
    ("streaming.fresh_p90_ms", "ms", "lower"),
    ("streaming.fresh_p99_ms", "ms", "lower"),
    ("streaming.epochs", "count", "higher"),
    ("streaming.epoch_s_p50", "s", "lower"),
    ("streaming.epoch_s_p90", "s", "lower"),
    ("streaming.rounds_p50", "count", "lower"),
    ("streaming.batch_claims_p50", "count", "lower"),
    ("streaming.wait_ms_p50", "ms", "lower"),
    ("streaming.busy_share", "ratio", "lower"),
    ("streaming.post_ms_p50", "ms", "lower"),
    ("streaming.read_p50_ms", "ms", "lower"),
    ("streaming.read_p90_ms", "ms", "lower"),
    ("streaming.backlog_end_claims", "count", "lower"),
    ("streaming.drain_s", "s", "lower"),
    ("streaming.stage.ledger_s", "s", "lower"),
    ("streaming.stage.fusion_s", "s", "lower"),
    ("streaming.stage.publish_s", "s", "lower"),
    ("streaming.stage.other_s", "s", "lower"),
    ("bench.gen_late_max_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.untraced_share", "ratio", "lower"),
    ("bench.machine_slowness", "ratio", "lower"),
)

#: What one run of the driver's command measures for.
RUN_SECONDS = 28


def manifest() -> dict:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
