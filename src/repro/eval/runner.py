"""Experiment runner: the per-method protocols behind Tables VI-X.

Each named method bundles a sampling step (or none), a per-round detector,
and the iterative fusion loop, exactly as Section VI-A's implementation
list describes:

=============  =====================================================
name           protocol
=============  =====================================================
pairwise       PAIRWISE every round on the full data
sample1        BYITEM sample, then PAIRWISE on the sample
sample2        BYCELL sample, then PAIRWISE on the sample
index          INDEX every round
bound          BOUND every round
bound+         BOUND+ every round
hybrid         HYBRID every round
incremental    HYBRID rounds 1-2, INCREMENTAL after
scalesample    SCALESAMPLE (floor N=4), then the incremental stack
fagininput     build the NRA input lists every round
=============  =====================================================

For sampled methods, copy detection runs on the sampled dataset and the
resulting (final-round) copy decisions are then *fixed* while the fusion
loop re-runs on the full dataset to produce truth-finding outputs — the
paper evaluates sampled methods' fusion quality on the full item set.

Timing convention (Table VII): ``detection_seconds`` is the copy-detection
time summed over rounds, *including* sampling time for sampled methods
(the paper calls out sampling overhead explicitly); fusion bookkeeping is
not included.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from ..core import (
    CopyParams,
    DetectionResult,
    make_detector,
)
from ..core.fagin_input import build_fagin_input
from ..data import Dataset, GoldStandard
from ..fusion import FusionResult, run_fusion
from ..sampling import sample_by_cell, sample_by_item, scale_sample
from .metrics import (
    PrecisionRecall,
    accuracy_variance,
    fusion_difference,
    pair_quality,
)

#: Method names accepted by :func:`run_method`.
RUNNER_METHODS = (
    "pairwise",
    "sample1",
    "sample2",
    "index",
    "bound",
    "bound+",
    "hybrid",
    "incremental",
    "scalesample",
    "fagininput",
)

#: Sampled methods -> the detector each runs on its item sample.
_SAMPLED = {"sample1": "pairwise", "sample2": "pairwise", "scalesample": "incremental"}


@dataclass
class MethodRun:
    """Everything measured for one (method, dataset) cell.

    Attributes:
        method: the method name.
        fusion: the fusion result on the *full* dataset.
        detection: the final copy-detection verdicts (on the sample, for
            sampled methods — pair ids align with the full dataset).
        detection_seconds: copy-detection time summed over rounds, plus
            sampling time where applicable.
        sampling_seconds: time spent drawing the sample (0 if unsampled).
        computations: detection computations summed over rounds.
        rounds: fusion rounds executed.
        sampled_items: items in the sample (None if unsampled).
    """

    method: str
    fusion: FusionResult
    detection: DetectionResult
    detection_seconds: float
    sampling_seconds: float
    computations: int
    rounds: int
    sampled_items: int | None = None

    def copying_pairs(self) -> set[tuple[int, int]]:
        return self.detection.copying_pairs()


class _FixedDetector:
    """A detector that replays precomputed verdicts every round."""

    def __init__(self, result: DetectionResult):
        self._result = result

    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:
        return self._result


class _FaginInputDetector:
    """Builds the NRA input lists each round (the FAGININPUT baseline).

    The verdicts it returns are exact (they fall out of the construction),
    so it can drive a full fusion run while its cost reflects list
    building.
    """

    def __init__(self, params: CopyParams):
        self.params = params

    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:
        return build_fagin_input(
            dataset, probabilities, accuracies, self.params
        ).result


def _make_detector(method: str, params: CopyParams):
    if method == "fagininput":
        return _FaginInputDetector(params)
    return make_detector(_SAMPLED.get(method, method), params)


def run_method(
    method: str,
    dataset: Dataset,
    params: CopyParams,
    sample_fraction: float = 0.1,
    seed: int = 0,
) -> MethodRun:
    """Run one method's full iterative protocol on a dataset.

    Args:
        method: one of :data:`RUNNER_METHODS`.
        dataset: the full dataset.
        params: model parameters.
        sample_fraction: item fraction for the sampled methods (the
            paper: 10%, or 1% on Stock-2wk).
        seed: RNG seed for sampling.

    Returns:
        A :class:`MethodRun` with quality inputs and cost measures.
    """
    if method not in RUNNER_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {RUNNER_METHODS}"
        )
    rng = random.Random(seed)

    sampling_seconds = 0.0
    sampled_items = None
    detect_dataset = dataset
    if method in _SAMPLED:
        start = time.perf_counter()
        if method == "sample1":
            items = sample_by_item(dataset, sample_fraction, rng)
        elif method == "sample2":
            items = sample_by_cell(dataset, sample_fraction, rng)
        else:
            items = scale_sample(dataset, sample_fraction, rng)
        detect_dataset = dataset.project_items(items)
        sampling_seconds = time.perf_counter() - start
        sampled_items = len(items)

    detector = _make_detector(method, params)
    detect_fusion = run_fusion(detect_dataset, params, detector=detector)
    detection = detect_fusion.final_detection()
    assert detection is not None

    if method in _SAMPLED:
        # Fuse the full dataset under the sampled copy decisions.
        fusion = run_fusion(
            dataset, params, detector=_FixedDetector(detection)
        )
    else:
        fusion = detect_fusion

    return MethodRun(
        method=method,
        fusion=fusion,
        detection=detection,
        detection_seconds=detect_fusion.detection_seconds + sampling_seconds,
        sampling_seconds=sampling_seconds,
        computations=detect_fusion.total_computations,
        rounds=detect_fusion.n_rounds,
        sampled_items=sampled_items,
    )


@dataclass
class QualityReport:
    """The Table VI row for one method vs the PAIRWISE reference."""

    method: str
    copy_quality: PrecisionRecall
    fusion_accuracy: float
    fusion_diff: float
    accuracy_var: float


def quality_vs_reference(
    run: MethodRun,
    reference: MethodRun,
    dataset: Dataset,
    gold: GoldStandard | None = None,
) -> QualityReport:
    """Score a run against the PAIRWISE reference (and a gold standard)."""
    quality = pair_quality(reference.copying_pairs(), run.copying_pairs())
    accuracy = (
        gold.accuracy_of(dataset, run.fusion.chosen) if gold is not None else 0.0
    )
    return QualityReport(
        method=run.method,
        copy_quality=quality,
        fusion_accuracy=accuracy,
        fusion_diff=fusion_difference(reference.fusion.chosen, run.fusion.chosen),
        accuracy_var=accuracy_variance(
            reference.fusion.accuracies, run.fusion.accuracies
        ),
    )
