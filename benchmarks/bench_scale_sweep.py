"""Scale benchmark: the sparse pair layout on 10k+ source Zipf worlds.

The dense flat-array kernels allocate ``n_sources ** 2`` slots; before
PR 6 every kernel silently fell back to the pure-Python reference loops
the moment that quadratic allocation crossed its limit — so the regime
the paper actually targets (many sources, Zipf coverage, observed pairs
a vanishing fraction of the key space) ran at reference speed.  This
benchmark drives :func:`repro.conformance.generators.large_sparse_world`
to 10k sources (plus a 50k numpy-only data point in full mode), runs
BOUND+ detection and one ACCUCOPY fusion round end-to-end on
``backend="numpy"`` with ``pair_layout="sparse"`` — at these scales the
``auto`` heuristic picks the same layout — and times them against the
pure-Python reference loops on the identical world.

The acceptance bar recorded by ``check``: bit-identical BOUND+
decisions, fusion probabilities within 1e-9, and the sparse numpy path
at least as fast as the reference loop it replaced (a ~1x floor, gated
by ``check_regression.py``; in practice the margin is large).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_scale_sweep.py [--smoke]
        [--output PATH]

``--smoke`` runs a downsized 2k-source world (same construction, same
checks) for CI budgets; ``--output`` redirects the artifact so the
committed baseline stays untouched.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path

import numpy as np

from repro.conformance.generators import RandomChooser, large_sparse_world
from repro.core import CopyParams, InvertedIndex
from repro.core.bound import detect_bound_plus
from repro.fusion import value_probabilities, vote_probabilities
from repro.fusion.accu_kernel import FusionColumns, value_probabilities_columnar

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_scale.json"

#: Fusion-round parity tolerance (the kernels' property-tested bound).
NUMERIC_TOL = 1e-9

#: (label, n_sources, n_items, zipf_exponent, reference_timed) — the
#: 50k point is numpy-only: its purpose is proving the sparse path
#: *completes* well past the dense ceiling, not re-measuring the same
#: speedup.  The exponent is kept below 1 so head sources overlap on
#: enough items for the scans to be non-trivial (pairs sharing a single
#: item conclude immediately and time nothing but dispatch overhead).
FULL_WORLDS = (
    ("zipf_10k", 10_000, 400, 0.8, True),
    ("zipf_50k", 50_000, 2_000, 1.0, False),
)
SMOKE_WORLDS = (("zipf_2k", 2_000, 300, 0.8, True),)


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(fn_a, fn_b, rounds: int = 3) -> tuple[float, float]:
    """Best-of timings for two contenders, alternating A/B each round.

    Sequential best-of blocks are fragile on shared machines: a load
    spike during one contender's block skews the ratio arbitrarily.
    Alternating rounds expose both sides to the same interference.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _bench_world(
    label: str,
    n_sources: int,
    n_items: int,
    zipf_exponent: float,
    reference_timed: bool,
    seed: int,
) -> dict:
    world = large_sparse_world(
        RandomChooser(random.Random(seed)),
        n_sources=n_sources,
        n_items=n_items,
        zipf_exponent=zipf_exponent,
        coverage=1.0,
    )
    dataset, probabilities, accuracies = world.materialize()
    probabilities = vote_probabilities(dataset)
    accuracies = [0.8] * dataset.n_sources
    params_sparse = CopyParams(backend="numpy", pair_layout="sparse")
    params_python = CopyParams(backend="python")

    index = InvertedIndex.build(
        dataset, probabilities, accuracies, params_python
    )
    row: dict = {
        "world": {
            "n_sources": dataset.n_sources,
            "n_items": dataset.n_items,
            "claims": sum(len(c) for c in dataset.claims),
            "observed_pairs": len(index.shared_items),
            "dense_key_space": dataset.n_sources * dataset.n_sources,
        },
        "timings_seconds": {},
    }

    # BOUND+ end-to-end on the sparse layout.  The untimed calls double
    # as warmup so first-call costs never land on either contender.
    sparse_result = detect_bound_plus(
        dataset, probabilities, accuracies, params_sparse, index=index
    )
    run_sparse = lambda: detect_bound_plus(  # noqa: E731
        dataset, probabilities, accuracies, params_sparse, index=index
    )
    run_python = lambda: detect_bound_plus(  # noqa: E731
        dataset, probabilities, accuracies, params_python, index=index
    )
    bound_row: dict = {"pairs": len(sparse_result.decisions)}
    if reference_timed:
        python_result = run_python()
        row["bit_identical"] = (
            sparse_result.decisions == python_result.decisions
        )
        sparse_t, python_t = _interleaved_best(run_sparse, run_python)
        bound_row["numpy_sparse"] = sparse_t
        bound_row["python"] = python_t
        bound_row["speedup"] = python_t / sparse_t
    else:
        bound_row["numpy_sparse"] = _best_of(run_sparse)
    row["timings_seconds"]["bound+"] = bound_row

    # One ACCUCOPY fusion round, each side discounting with its own
    # backend's (bit-identical) detection result — the reference loop
    # reads a plain dict, as a python-backend run would hand it.
    cols = FusionColumns.from_dataset(dataset)
    acc = np.asarray(accuracies, dtype=np.float64)
    sparse_probs = value_probabilities_columnar(
        cols, acc, params_sparse, sparse_result
    )
    run_sparse_fusion = lambda: value_probabilities_columnar(  # noqa: E731
        cols, acc, params_sparse, sparse_result
    )
    fusion_row: dict = {}
    if reference_timed:
        run_python_fusion = lambda: value_probabilities(  # noqa: E731
            dataset, accuracies, params_python, detection=python_result
        )
        python_probs = run_python_fusion()
        diff = float(
            np.max(
                np.abs(sparse_probs - np.asarray(python_probs, dtype=np.float64))
            )
            if len(python_probs)
            else 0.0
        )
        row["fusion_max_abs_diff"] = diff
        sparse_t, python_t = _interleaved_best(
            run_sparse_fusion, run_python_fusion
        )
        fusion_row["numpy_sparse"] = sparse_t
        fusion_row["python"] = python_t
        fusion_row["speedup"] = python_t / sparse_t
    else:
        fusion_row["numpy_sparse"] = _best_of(run_sparse_fusion)
    row["timings_seconds"]["accucopy_round"] = fusion_row
    return row


def run(smoke: bool = False) -> dict:
    worlds = {}
    for label, n_sources, n_items, zipf_exponent, reference_timed in (
        SMOKE_WORLDS if smoke else FULL_WORLDS
    ):
        worlds[label] = _bench_world(
            label, n_sources, n_items, zipf_exponent, reference_timed,
            seed=1205,
        )
    passed = True
    for row in worlds.values():
        if "bit_identical" in row:
            passed = passed and row["bit_identical"]
        if "fusion_max_abs_diff" in row:
            passed = passed and row["fusion_max_abs_diff"] <= NUMERIC_TOL
        for timing in row["timings_seconds"].values():
            if "speedup" in timing:
                passed = passed and timing["speedup"] >= 1.0
    return {
        "benchmark": "scale_sweep",
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "worlds": worlds,
        "check": {
            "target": (
                "sparse-layout BOUND+ and ACCUCOPY run end-to-end past the "
                "dense ceiling, bit-identical/1e-9 vs the reference loops, "
                "at >= 1x their speed"
            ),
            "passed": passed,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke run: one downsized 2k-source world, same checks",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH, help="artifact path"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for label, row in report["worlds"].items():
        world = row["world"]
        print(
            f"{label}: {world['n_sources']:,} sources, "
            f"{world['observed_pairs']:,} observed pairs of a "
            f"{world['dense_key_space']:,} key space"
        )
        for name, timing in row["timings_seconds"].items():
            line = f"  {name:15s} numpy_sparse={timing['numpy_sparse']:.3f}s"
            if "python" in timing:
                line += (
                    f" python={timing['python']:.3f}s"
                    f" speedup={timing['speedup']:.1f}x"
                )
            print(line)
        if "bit_identical" in row:
            print(f"  bit_identical={row['bit_identical']}")
    print(
        f"check: {report['check']['target']} -> "
        f"passed={report['check']['passed']}"
    )
    print(f"artifact -> {args.output}")
    return 0 if report["check"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
