"""The iterative fusion loop: copy detection + truth finding + accuracies.

Value probabilities and source accuracies are unknown a priori, and copy
detection needs both; so the literature (and the paper's Section II)
iterates:  starting from uniform accuracies, each round (1) detects
copying under the current estimates, (2) recomputes value probabilities
with copied votes discounted, and (3) re-estimates source accuracies —
until the accuracies stabilise.  Table II of the paper shows five such
rounds on the motivating example.

Any object with the ``run_round(round_no, dataset, probabilities,
accuracies)`` interface can serve as the detector — the stateless
:class:`~repro.core.SingleRoundDetector` wrappers, the stateful
:class:`~repro.core.IncrementalDetector`, or ``None`` for a copy-oblivious
ACCU run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

from ..core.params import BACKENDS, CopyParams
from ..core.result import CostCounter, DetectionResult
from ..data import Dataset
from ..data.columns import choose_values_columnar
from .accu import choose_values, update_accuracies, value_probabilities
from .credibility import CredibilityModel
from .ds import ds_value_probabilities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from ..data.columns import ClaimColumns
    from ..serving.store import VerdictStore
    from .workspace import FusionWorkspace

#: Valid ``FusionConfig.fusion_method`` values: the ACCU/ACCUCOPY
#: softmax (the paper's model) or Dempster-Shafer combination with
#: credibility priors and per-item conflict diagnostics.
FUSION_METHOD_VALUES = ("accu", "ds")

#: Every source's starting accuracy in a cold fusion run.
INITIAL_ACCURACY = 0.8


class RoundDetector(Protocol):
    """Anything that can detect copying once per fusion round."""

    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:  # pragma: no cover - protocol
        """Detect copying under the round's current estimates."""
        ...


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the iterative loop, checked when the config is built.

    Attributes:
        max_rounds: hard cap on rounds (the paper's datasets converge in
            5-9); at least 1.
        tolerance: convergence threshold on the maximum accuracy change.
            The default stops once accuracies move by less than 0.02 —
            past that point copy decisions no longer change (and the
            paper's runs finish in a similar number of rounds).
        min_rounds: never stop before this many rounds (copy decisions
            swing in the first two rounds; see Section VI footnote 7).
        initial_accuracies: per-source starting accuracies overriding the
            uniform :data:`INITIAL_ACCURACY`.  The streaming engine warm-starts
            each epoch from the previous epoch's converged accuracies so
            the loop re-converges in a couple of rounds instead of from
            scratch.  Must have one entry per source when given.
        fusion_method: the truth-finding update — ``"accu"`` (the
            paper's ACCU/ACCUCOPY softmax, the default) or ``"ds"``
            (Dempster-Shafer combination, :mod:`repro.fusion.ds`: mass
            functions weighted by accuracy x credibility, per-item
            conflict degree ``K`` on every :class:`RoundRecord`,
            pignistic truths).
        credibility: per-source priors for the DS method
            (:class:`~repro.fusion.credibility.CredibilityModel`);
            ``None`` means the flat model.  Rejected under ``"accu"``,
            whose math has no slot for it.
        ds_uncertainty: mass reserve each DS claim leaves on Θ
            (``0 <= ds_uncertainty < 1``); a non-default value is
            rejected under ``"accu"`` too.
    """

    max_rounds: int = 12
    tolerance: float = 0.02
    min_rounds: int = 3
    initial_accuracies: Sequence[float] | None = None
    fusion_method: str = "accu"
    credibility: CredibilityModel | None = None
    ds_uncertainty: float = 0.0

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds!r}")
        if self.fusion_method not in FUSION_METHOD_VALUES:
            raise ValueError(
                f"fusion_method must be one of {FUSION_METHOD_VALUES}, "
                f"got {self.fusion_method!r}"
            )
        if not 0.0 <= self.ds_uncertainty < 1.0:
            raise ValueError(
                f"ds_uncertainty must be in [0, 1), got {self.ds_uncertainty!r}"
            )
        if self.fusion_method != "ds":
            if self.credibility is not None:
                raise ValueError(
                    "credibility priors require fusion_method='ds' "
                    "(the ACCU softmax has no slot for them)"
                )
            if self.ds_uncertainty != 0.0:
                raise ValueError("ds_uncertainty requires fusion_method='ds'")


@dataclass(frozen=True)
class DetectionSummary:
    """What a round keeps of its detection: the method, the paper's cost
    and the number of pairs scored.  The verdict table itself is dropped
    once the round is fused and published; the final round's table lives
    on as :attr:`FusionResult.detection`."""

    method: str
    cost: CostCounter
    n_pairs: int


@dataclass
class RoundRecord:
    """What happened in one fusion round.

    ``conflict`` is the Dempster conflict degree ``K in [0, 1]`` per
    represented item id — populated by the ``"ds"`` fusion method,
    ``None`` under ``"accu"`` (whose softmax has no conflict notion).
    """

    round_no: int
    detection: DetectionSummary | None
    accuracy_change: float
    detection_seconds: float
    fusion_seconds: float
    conflict: dict[int, float] | None = None


@dataclass
class FusionResult:
    """Final state of a fusion run.

    Attributes:
        probabilities: final ``P(D.v)`` per value id.
        accuracies: final ``A(S)`` per source id.
        chosen: fused truth — ``item_id -> value_id``.
        rounds: per-round records (detection summaries, timings).
        converged: whether the tolerance was met before ``max_rounds``.
        snapshot_ids: per-round verdict-store snapshot ids, when the run
            published to one (``run_fusion(snapshot_store=...)``); empty
            otherwise.
        credibility: the per-source credibility weights the run's DS
            masses were scaled by (``"ds"`` runs only; ``None`` under
            ``"accu"``).
        detection: the last round's detection result, the one verdict
            table the run keeps (``None`` without a detector).
    """

    probabilities: list[float]
    accuracies: list[float]
    chosen: dict[int, int]
    rounds: list[RoundRecord] = field(default_factory=list)
    converged: bool = False
    snapshot_ids: list[int] = field(default_factory=list)
    credibility: list[float] | None = None
    detection: DetectionResult | None = None

    @property
    def n_rounds(self) -> int:
        """Number of rounds the loop actually ran."""
        return len(self.rounds)

    def final_conflict(self) -> dict[int, float] | None:
        """The last round's per-item conflict degrees (DS runs only)."""
        found = [r.conflict for r in self.rounds if r.conflict is not None]
        return found[-1] if found else None

    @property
    def detection_seconds(self) -> float:
        """Total copy-detection time across rounds."""
        return sum(r.detection_seconds for r in self.rounds)

    @property
    def total_computations(self) -> int:
        """Total copy-detection computations across rounds."""
        return sum(
            r.detection.cost.computations for r in self.rounds if r.detection
        )

    def final_detection(self) -> DetectionResult | None:
        """The last round's detection result (the converged verdicts)."""
        return self.detection


def _chosen(dataset: Dataset, probabilities) -> dict[int, int]:
    """The fused truths, ``item_id -> value_id``, in the reference's
    insertion order (items by their lowest value id) on either path."""
    if not hasattr(probabilities, "tolist"):
        return choose_values(dataset, probabilities)
    cols = dataset.columns
    truth = choose_values_columnar(cols, probabilities)
    order = cols.item_order[cols.seg_starts[:-1]].argsort()
    return dict(zip(cols.seg_items[order].tolist(), truth[order].tolist()))


def _as_float_list(values) -> list[float]:
    """Materialise a probability/accuracy vector as a plain float list."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


def fusion_steps(
    dataset: Dataset,
    params: CopyParams,
    config: FusionConfig,
    columns: "ClaimColumns | None" = None,
):
    """One fusion round's two update steps, for one backend x method cell.

    Returns ``(value_probs, update_accs)``:
    ``value_probs(accuracies, detection=None)`` yields the round's
    ``(probabilities, conflict-or-None)`` — the DS conflict degrees ride
    the same path the ACCU probabilities do — and
    ``update_accs(probabilities)`` re-estimates the accuracies (the
    shared ACCU re-estimate under either method).  With ``columns``
    (``dataset.columns``) both run the vectorized kernels, without it the
    reference loops.  :func:`run_fusion` and the conformance engine's
    fusion lockstep both step through this pair, so they cannot drift apart.
    """
    world, accu, ds, update = (
        dataset,
        value_probabilities,
        ds_value_probabilities,
        update_accuracies,
    )
    if columns is not None:
        from .accu_kernel import update_accuracies_columnar as update
        from .accu_kernel import value_probabilities_columnar as accu
        from .ds import ds_value_probabilities_columnar as ds

        world = columns

    if config.fusion_method == "ds":
        # The weights do not move with the accuracies: one vector a run.
        credibility = (
            None
            if config.credibility is None
            else config.credibility.effective(dataset.source_names)
        )

        def value_probs(accs, detection=None):
            round_ = ds(
                world,
                accs,
                params,
                detection=detection,
                credibility=credibility,
                uncertainty=config.ds_uncertainty,
            )
            return round_.probabilities, round_.conflict

    else:

        def value_probs(accs, detection=None):
            return accu(world, accs, params, detection=detection), None

    def update_accs(probs):
        return update(world, probs, params)

    return value_probs, update_accs


def run_fusion(
    dataset: Dataset,
    params: CopyParams,
    detector: RoundDetector | None = None,
    config: FusionConfig | None = None,
    workspace: "FusionWorkspace | None" = None,
    fusion_backend: str | None = None,
    snapshot_store: "VerdictStore | Path | str | None" = None,
) -> FusionResult:
    """Run the iterative copy-detection + truth-finding loop to convergence.

    Args:
        dataset: the claims.
        params: model parameters.
        detector: per-round copy detector; ``None`` runs plain ACCU
            (accuracy-aware fusion that ignores copying).
        config: loop configuration.
        workspace: a :class:`~repro.fusion.FusionWorkspace` with the
            round-invariant state (shared-item counts, pools, cluster
            sessions), shared across runs; the caller closes it.  When
            omitted and the detector binds one, a workspace is created
            and closed on the way out, detector exceptions included.
        fusion_backend: backend of the ACCU/ACCUCOPY updates; defaults
            to ``params.backend``.  ``"python"`` keeps the reference
            loops, e.g. to fuse bit-identically under a numpy detector.
        snapshot_store: a :class:`~repro.serving.VerdictStore` (or its
            directory) to publish each round's verdicts and truths into:
            a full snapshot first, then deltas against the published
            state (:func:`repro.serving.store.diff`).

    Returns:
        The converged :class:`FusionResult`.

    Raises:
        ValueError: for an unknown ``fusion_backend``, a
            ``snapshot_store`` beside a detector whose ``params.alpha``
            is not ``params.alpha``, a ``workspace`` built for a
            different dataset, or mis-sized ``config.initial_accuracies``
            (:class:`FusionConfig` checks its own rules when built).
    """
    cfg = config or FusionConfig()
    backend = params.backend if fusion_backend is None else fusion_backend
    # Every check of the arguments lives up here, before the workspace,
    # the snapshot publisher (whose VerdictStore mkdirs its directory!)
    # or the detector binding exist: an invalid call must raise with
    # zero side effects on the store or the detector.
    if backend not in BACKENDS:
        raise ValueError(
            f"fusion_backend must be one of {BACKENDS}, got {backend!r}"
        )
    if cfg.initial_accuracies is not None and (
        len(cfg.initial_accuracies) != dataset.n_sources
    ):
        raise ValueError(
            "initial_accuracies must have one entry per source "
            f"({len(cfg.initial_accuracies)} != {dataset.n_sources})"
        )
    scorer = getattr(detector, "params", params)
    if snapshot_store is not None and scorer.alpha != params.alpha:
        raise ValueError(
            f"the detector scores under alpha={scorer.alpha!r}, but the snapshot "
            f"store derives posteriors under params.alpha={params.alpha!r}"
        )
    if workspace is not None and workspace.dataset is not dataset:
        raise ValueError("the workspace was built for a different dataset")
    if workspace is not None and workspace.closed:
        raise ValueError("the workspace is closed")

    owns_workspace = workspace is None and hasattr(detector, "bind_workspace")
    if owns_workspace:
        from .workspace import FusionWorkspace

        workspace = FusionWorkspace(dataset, params)

    _value_probs, _update_accs = fusion_steps(
        dataset,
        params,
        cfg,
        columns=dataset.columns if backend == "numpy" else None,
    )

    publisher = None
    if snapshot_store is not None:
        from ..serving.store import SnapshotPublisher

        publisher = SnapshotPublisher(snapshot_store, dataset, params)

    detector_bound = workspace is not None and hasattr(detector, "bind_workspace")
    try:
        if detector_bound:
            detector.bind_workspace(workspace)
        if cfg.initial_accuracies is not None:
            accuracies = [float(a) for a in cfg.initial_accuracies]
        else:
            accuracies = [INITIAL_ACCURACY] * dataset.n_sources
        probabilities, _ = _value_probs(accuracies)
        rounds: list[RoundRecord] = []
        converged = False

        for round_no in range(1, cfg.max_rounds + 1):
            # Drop the last round's table before this round scans (only a
            # publisher's delta baseline may still hold it).
            detection, summary, detection_seconds = None, None, 0.0
            if detector is not None:
                start = time.perf_counter()
                detection = detector.run_round(
                    round_no, dataset, probabilities, accuracies
                )
                detection_seconds = time.perf_counter() - start
                summary = DetectionSummary(
                    detection.method, detection.cost, len(detection.decisions)
                )

            start = time.perf_counter()
            probabilities, conflict = _value_probs(accuracies, detection=detection)
            new_accuracies = _update_accs(probabilities)
            fusion_seconds = time.perf_counter() - start

            change = max(
                (abs(new - old) for new, old in zip(new_accuracies, accuracies)),
                default=0.0,
            )
            accuracies = new_accuracies
            rounds.append(
                RoundRecord(
                    round_no, summary, change, detection_seconds, fusion_seconds,
                    conflict=conflict,
                )
            )
            if publisher is not None:
                publisher.publish_round(round_no, detection, probabilities)
            if round_no >= cfg.min_rounds and change < cfg.tolerance:
                converged = True
                break

        credibility = None
        if cfg.fusion_method == "ds":
            credibility = (cfg.credibility or CredibilityModel.flat()).effective(
                dataset.source_names
            )
        return FusionResult(
            probabilities=_as_float_list(probabilities),
            accuracies=_as_float_list(accuracies),
            chosen=_chosen(dataset, probabilities),
            rounds=rounds,
            converged=converged,
            snapshot_ids=list(publisher.snapshot_ids) if publisher else [],
            credibility=credibility,
            detection=detection,
        )
    finally:
        # Detectors outlive fusion runs; never leave one holding a
        # workspace we are about to close (or that the caller may close).
        if detector_bound:
            detector.bind_workspace(None)
        if owns_workspace:
            workspace.close()
