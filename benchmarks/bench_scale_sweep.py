"""Manual wide-world referee: the sparse pair layout on 10k+ source worlds.

The repo benchmark (``BENCHMARK.json``, ``benchmarks/e2e/``) is the one
place wall-clock numbers are recorded and gated; its widest workload,
``batch_wide``, has 2,124 sources.  This script is what runs the regime
beyond it — ``large_sparse_world`` at 10k and 50k Zipf sources, where
observed pairs are a vanishing fraction of the ``n_sources ** 2`` key
space — until a ``benchmark`` PR gives the registry a wide point.  Run it
by hand, on the parent commit and on the change, whenever a change
touches epoch sizing, the sparse pair layout or the columnar fusion
round (it is what caught an epoch budget that made the 50k world 2.4x
slower at twice the memory)::

    PYTHONPATH=src python benchmarks/bench_scale_sweep.py [--smoke]

Per world it runs BOUND+ detection and one ACCUCOPY fusion round on
``backend="numpy"`` with ``pair_layout="sparse"`` (at these scales the
``auto`` heuristic picks the same layout) and prints **absolute seconds**
(best of three) and the process's **peak RSS** once the sparse path has
run — before the pure-Python reference, which runs afterwards and only to
check the result, is allowed to raise it.  Nothing is written and no
ratio is gated; the exit code is the self-check alone: BOUND+ decisions
bit-identical to the reference loop and fusion probabilities within
1e-9, on every world small enough to run the reference.

``--smoke`` runs one downsized 2k-source world (same construction, same
checks, a few seconds).
"""

from __future__ import annotations

import argparse
import random
import resource
import time

import numpy as np

from repro.conformance.generators import RandomChooser, large_sparse_world
from repro.core import CopyParams, InvertedIndex
from repro.core.bound import detect_bound_plus
from repro.fusion import value_probabilities, vote_probabilities
from repro.fusion.accu_kernel import value_probabilities_columnar

#: Fusion-round parity tolerance (the kernels' property-tested bound).
NUMERIC_TOL = 1e-9

#: (label, n_sources, n_items, zipf_exponent, reference_checked) — the
#: 50k point is numpy-only: its purpose is proving the sparse path
#: *completes* well past the dense ceiling, at a cost worth watching.
#: The exponent is kept below 1 so head sources overlap on enough items
#: for the scans to be non-trivial (pairs sharing a single item conclude
#: immediately and time nothing but dispatch overhead).
FULL_WORLDS = (
    ("zipf_10k", 10_000, 400, 0.8, True),
    ("zipf_50k", 50_000, 2_000, 1.0, False),
)
SMOKE_WORLDS = (("zipf_2k", 2_000, 300, 0.8, True),)

WORLD_SEED = 1205


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_rss_mb() -> float:
    """The process's high-water RSS so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_world(
    label: str,
    n_sources: int,
    n_items: int,
    zipf_exponent: float,
    reference_checked: bool,
) -> bool:
    """Time one world's sparse path, print it, and self-check it."""
    world = large_sparse_world(
        RandomChooser(random.Random(WORLD_SEED)),
        n_sources=n_sources,
        n_items=n_items,
        zipf_exponent=zipf_exponent,
        coverage=1.0,
    )
    dataset, _, _ = world.materialize()
    probabilities = vote_probabilities(dataset)
    accuracies = [0.8] * dataset.n_sources
    params_sparse = CopyParams(backend="numpy", pair_layout="sparse")
    params_python = CopyParams(backend="python")
    # A numpy build: its l(S1, S2) column table serves the sparse scan as
    # arrays and the python reference as a mapping.
    index = InvertedIndex.build(dataset, probabilities, accuracies, params_sparse)
    print(
        f"{label}: {dataset.n_sources:,} sources, "
        f"{len(index.shared_items):,} observed pairs of a "
        f"{dataset.n_sources * dataset.n_sources:,} key space"
    )

    # The untimed first call doubles as warmup and as the checked result.
    sparse_result = detect_bound_plus(
        dataset, probabilities, accuracies, params_sparse, index=index
    )
    bound_s = _best_of(
        lambda: detect_bound_plus(
            dataset, probabilities, accuracies, params_sparse, index=index
        )
    )
    cols = dataset.columns
    acc = np.asarray(accuracies, dtype=np.float64)
    sparse_probs = value_probabilities_columnar(
        cols, acc, params_sparse, sparse_result
    )
    fusion_s = _best_of(
        lambda: value_probabilities_columnar(
            cols, acc, params_sparse, sparse_result
        )
    )
    print(
        f"  bound+          {bound_s:.3f} s  "
        f"({len(sparse_result.decisions):,} pairs decided)"
    )
    print(f"  accucopy round  {fusion_s:.3f} s")
    print(f"  peak RSS        {_peak_rss_mb():.0f} MB (process high-water mark)")
    if not reference_checked:
        return True

    # The reference loop reads a plain dict, as a python-backend run
    # would hand it — not the numpy result's column view.
    python_result = detect_bound_plus(
        dataset, probabilities, accuracies, params_python, index=index
    )
    bit_identical = sparse_result.decisions == python_result.decisions
    python_probs = value_probabilities(
        dataset, accuracies, params_python, detection=python_result
    )
    drift = (
        float(np.max(np.abs(sparse_probs - np.asarray(python_probs))))
        if len(python_probs)
        else 0.0
    )
    print(f"  bit_identical={bit_identical}  fusion_max_abs_diff={drift:.2e}")
    return bit_identical and drift <= NUMERIC_TOL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one downsized 2k-source world, same checks",
    )
    args = parser.parse_args(argv)
    passed = True
    for world in SMOKE_WORLDS if args.smoke else FULL_WORLDS:
        passed = _run_world(*world) and passed
    print(f"check: sparse path == reference (bit-identical / 1e-9) -> {passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
