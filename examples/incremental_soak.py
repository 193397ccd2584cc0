"""INCREMENTAL multi-round fusion soak: numpy backends vs the reference.

The ROADMAP gates flipping the default backend to ``"numpy"`` on soak
evidence: INCREMENTAL's multi-round schedule (HYBRID from scratch in
rounds 1-2, bookkeeping-driven updates after) must reproduce the python
reference on a *realistic* dataset — non-uniform coverage, heterogeneous
accuracies — not just on hypothesis micro-worlds.  This example runs the
full iterative fusion loop on a Book-CS-shaped world (zipf coverage: 85%
of sources cover almost nothing, accuracy spread 0.35-0.85, planted
copier cliques) under three configurations and **asserts** parity:

* ``python`` — the all-reference run.
* ``numpy detect`` — numpy *detection* with the python fusion math
  (``fusion_backend="python"``).  The epoch-batched bound scans are
  bit-identical by contract, so this run must match the reference with
  **zero** drift: identical round count, per-round copying pairs, fused
  truths, and final accuracies equal to 1e-12.
* ``numpy`` — the full columnar fusion backend (vectorized ACCU/ACCUCOPY
  + numpy detection, driven through a round-persistent
  ``FusionWorkspace``).  The fusion kernel re-associates float sums, so
  this run must match to the kernel contract instead: identical rounds,
  verdicts and fused truths, probabilities/accuracies within 1e-9.

Run:  python examples/incremental_soak.py [scale]

(scale defaults to 0.15 — 134 sources; the test suite runs 0.08.)
"""

import sys

from repro.core import CopyParams, IncrementalDetector
from repro.eval import render_table
from repro.fusion import FusionConfig, run_fusion
from repro.synth import book_cs


class CopyingPerRound:
    """A round detector that notes each round's copying pairs.

    ``run_fusion`` keeps only the final round's verdict table (each
    ``RoundRecord`` carries a summary), so a caller that compares rounds
    wraps its detector.  Every other attribute is the wrapped detector's.
    """

    def __init__(self, detector):
        self.detector, self.pairs = detector, []

    def __getattr__(self, name):
        return getattr(self.detector, name)

    def run_round(self, *args):
        result = self.detector.run_round(*args)
        self.pairs.append(result.copying_pairs())
        return result


def run_backend(dataset, backend: str, fusion_backend: str | None = None):
    """One INCREMENTAL fusion run; returns it and each round's copying pairs."""
    params = CopyParams(backend=backend)
    detector = CopyingPerRound(IncrementalDetector(params))
    result = run_fusion(
        dataset,
        params,
        detector=detector,
        config=FusionConfig(max_rounds=10),
        fusion_backend=fusion_backend,
    )
    return result, detector.pairs


def assert_parity(reference_run, soaked_run, label: str, accuracy_tolerance: float):
    """Round/verdict/truth identity plus bounded accuracy drift; each run is
    what :func:`run_backend` returns."""
    (reference, ref_pairs), (soaked, soak_pairs) = reference_run, soaked_run
    assert soaked.n_rounds == reference.n_rounds, (
        f"{label}: round count diverged: "
        f"{soaked.n_rounds} != {reference.n_rounds}"
    )
    assert soaked.converged == reference.converged, f"{label}: convergence"
    for round_no, (want, got) in enumerate(zip(ref_pairs, soak_pairs), 1):
        assert got == want, f"{label}: round {round_no}: copying pairs diverged"
    assert soaked.chosen == reference.chosen, f"{label}: fused truths diverged"
    max_drift = max(
        abs(a - b) for a, b in zip(soaked.accuracies, reference.accuracies)
    )
    assert max_drift <= accuracy_tolerance, (
        f"{label}: accuracy drift {max_drift} exceeds {accuracy_tolerance}"
    )
    return max_drift


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    world = book_cs(scale=scale)
    dataset = world.dataset
    stats = dataset.stats()
    print(
        f"book_cs @ scale={scale}: {stats.n_sources} sources, "
        f"{stats.n_items} items, {stats.n_index_entries} index entries, "
        f"planted copier pairs: {sorted(world.copy_pairs)}"
    )

    reference = run_backend(dataset, "python")
    detect_only = run_backend(dataset, "numpy", fusion_backend="python")
    full_numpy = run_backend(dataset, "numpy")

    # ------------------------------------------------------------------
    # Parity assertions — the point of the soak.
    # ------------------------------------------------------------------
    detect_drift = assert_parity(
        reference, detect_only, "numpy detect", accuracy_tolerance=1e-12
    )
    fusion_drift = assert_parity(
        reference, full_numpy, "numpy fusion", accuracy_tolerance=1e-9
    )

    # ------------------------------------------------------------------
    # Report.
    # ------------------------------------------------------------------
    rows = []
    for backend, (result, _) in (
        ("python", reference),
        ("numpy detect", detect_only),
        ("numpy", full_numpy),
    ):
        detection = result.final_detection()
        rows.append(
            [
                backend,
                result.n_rounds,
                result.converged,
                len(detection.copying_pairs()) if detection else 0,
                f"{result.detection_seconds:.3f}s",
                f"{result.total_computations:,}",
            ]
        )
    print(
        render_table(
            "INCREMENTAL fusion: backend soak",
            ["backend", "rounds", "converged", "copying", "detect time", "computations"],
            rows,
        )
    )
    gold_accuracy = world.gold.accuracy_of(dataset, reference[0].chosen)
    print(f"fusion accuracy vs gold: {gold_accuracy:.3f}")
    print(
        f"parity: rounds/verdicts/truths identical; accuracy drift "
        f"{detect_drift:.1e} (numpy detect, <= 1e-12), "
        f"{fusion_drift:.1e} (numpy fusion, <= 1e-9)"
    )


if __name__ == "__main__":
    main()
