"""Epoch engine: one micro-batch of deltas in, one published epoch out.

This is the synchronous heart of the streaming service — everything the
asyncio layer (:mod:`repro.streaming.service`) does reduces to calling
:meth:`StreamEngine.prepare` and :meth:`StreamEngine.commit` with a
coalesced batch of :class:`~repro.data.ClaimDelta`.  Keeping the engine
synchronous and deterministic is what makes the lockstep-parity
guarantee testable: :func:`replay_epochs` drives the *same* engine over
the same epoch partitions with no event loop at all, and the results
must match the live service's exactly.

An epoch is ``commit(prepare(batch))`` — :meth:`StreamEngine.run_epoch`
is literally that.  :meth:`~StreamEngine.prepare` does the work and
changes nothing the engine serves:

1. folds the deltas into a :meth:`~repro.data.ClaimLedger.fork` of the
   committed ledger, and stops there when the batch was a pure
   confirmation (``LedgerUpdate.is_noop`` — detection state provably
   unchanged);
2. freezes the fork's immutable dataset snapshot;
3. runs the full fusion loop over it with exact INDEX
   (:class:`~repro.core.SingleRoundDetector` ``"index"``), warm-started
   from the last *committed* epoch's converged accuracies when
   ``warm_start`` is on.  :func:`~repro.fusion.run_fusion` owns the
   epoch's :class:`~repro.fusion.FusionWorkspace` (the ``l(S1, S2)``
   counts of that snapshot); INDEX runs sequentially, so no executor
   is ever started.

Its :class:`PreparedEpoch` is therefore a pure function of (committed
state, batch): the service prepares the pending batch while its
debounce window is still open and throws the result away when more
claims arrive.  :meth:`~StreamEngine.commit` refuses a prepare whose
base ledger is no longer the committed one, then

4. publishes the converged verdict table (decision positions
   included — they are a column of it) + truths to the
   :class:`~repro.serving.VerdictStore` through the engine's one
   :class:`~repro.serving.SnapshotPublisher` — a delta snapshot sized
   by the publisher's diff of every stored column (bits and positions
   exactly, scores past the store's tolerance) against the
   previous epoch (INDEX reports no ``changed_pairs``).  A pair's key
   depends on its two ids alone, so the chain extends across epochs in
   which new sources appear;
5. adopts the fork as the ledger and swaps in the new
   :class:`EpochState`.  A prepare that raises has nothing to undo.

**Cold epochs are batch runs.**  INDEX keeps no state across rounds,
so each epoch scans its own index build, and a cold epoch
(``warm_start=False``) equals a batch INDEX :func:`run_fusion` over the
accumulated claims bit for bit.  What an epoch saves across epochs is
accuracy warm-starts (fewer rounds to re-converge).  Delta snapshots
are written when they pay, which on the benchmark's feed is never: an
epoch of ten claims re-converges the accuracies and moves nearly every
pair row past the store's 1e-6 tolerance, so the publisher writes an
honest full snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..core.detector import SingleRoundDetector
from ..core.explain import PairExplanation, explain_pair
from ..core.params import CopyParams
from ..data import ClaimDelta, ClaimLedger, Dataset, LedgerUpdate
from ..fusion.pipeline import (
    INITIAL_ACCURACY,
    FusionConfig,
    FusionResult,
    run_fusion,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.result import DetectionResult
    from ..serving.store import VerdictStore


@dataclass(frozen=True)
class EpochState:
    """Immutable post-epoch state, safe to read from any thread.

    The service thread swaps a fresh ``EpochState`` into
    ``StreamEngine.state`` after each epoch (one attribute write, atomic
    under the GIL), so live queries from the event loop never observe a
    half-updated epoch.

    Attributes:
        epoch: 1-based number of the epoch that produced this state.
        ledger_version: the claim ledger's version at freeze time.
        dataset: the epoch's immutable claim snapshot.
        params: the engine's model parameters.
        probabilities: converged ``P(D.v)`` per value id.
        accuracies: converged ``A(S)`` per source id.
        chosen: fused truth — ``item_id -> value_id``.
        detection: the epoch's converged detection (None when the epoch
            ran copy-oblivious).
        snapshot_id: the verdict-store snapshot this epoch published
            (None when the engine runs without a store).
        conflict: the final round's Dempster conflict ``K`` per item id
            (``fusion_method == "ds"`` only; None under ``"accu"``).
        credibility: effective per-source credibility at convergence
            (``"ds"`` only; None under ``"accu"``).
    """

    epoch: int
    ledger_version: int
    dataset: Dataset
    params: CopyParams
    probabilities: tuple[float, ...]
    accuracies: tuple[float, ...]
    chosen: dict[int, int]
    detection: "DetectionResult | None"
    snapshot_id: int | None
    conflict: dict[int, float] | None = None
    credibility: tuple[float, ...] | None = None

    def explain(self, source_a: int, source_b: int) -> PairExplanation:
        """Item-by-item evidence between two sources, live from this epoch.

        Raises:
            ValueError: coinciding or out-of-range source ids.
            PairNotObservedError: the epoch's detection never opened the
                pair (no shared scored value — independent by
                construction).
        """
        return explain_pair(
            self.dataset,
            source_a,
            source_b,
            list(self.probabilities),
            list(self.accuracies),
            self.params,
            result=self.detection,
            credibility=self.credibility,
            conflict=self.conflict,
        )


@dataclass(frozen=True)
class PreparedEpoch:
    """A batch folded and fused but not published (:meth:`StreamEngine.prepare`).

    Attributes:
        base: the committed ledger the batch was folded onto;
            :meth:`StreamEngine.commit` refuses the prepare once the
            engine's ledger is another one.
        ledger: the fork of ``base`` holding the batch.
        update: the ledger's accounting of the batch.
        state: the epoch's state, ``snapshot_id`` still None (None when
            the batch was a no-op and nothing was fused).
        fusion: the epoch's fusion outcome (None when skipped).
        seconds: wall-clock of the prepare (apply + fusion).
    """

    base: ClaimLedger
    ledger: ClaimLedger
    update: LedgerUpdate
    state: EpochState | None
    fusion: FusionResult | None
    seconds: float


@dataclass(frozen=True)
class EpochResult:
    """What one committed epoch did.

    Attributes:
        epoch: 1-based epoch number (not advanced by skipped batches).
        update: the ledger's accounting of the applied batch.
        skipped: True when the batch was a no-op (pure confirmations, or
            nothing at all) and no fusion ran, no snapshot was written.
        fusion: the epoch's fusion outcome (None when skipped).
        snapshot_id: the published snapshot; when skipped, the one still
            current (None before the first publish or when the engine
            has no store).
        n_sources: sources after the batch.
        n_items: items after the batch.
        prepare_seconds: wall-clock of the prepare (apply + fusion).
        commit_seconds: wall-clock of the commit (publish + swap).
    """

    epoch: int
    update: LedgerUpdate
    skipped: bool
    fusion: FusionResult | None
    snapshot_id: int | None
    n_sources: int
    n_items: int
    prepare_seconds: float
    commit_seconds: float

    @property
    def elapsed_seconds(self) -> float:
        """The epoch's own work: ``prepare_seconds + commit_seconds``."""
        return self.prepare_seconds + self.commit_seconds


class StreamEngine:
    """Synchronous epoch-at-a-time streaming engine.

    Args:
        store: the verdict store to publish each epoch into (a
            :class:`~repro.serving.VerdictStore`, a directory path, or
            None to run unpublished — e.g. for replay tests).
        params: model parameters.
        config: per-epoch fusion loop configuration (defaults to
            :class:`~repro.fusion.FusionConfig`'s).  The engine overrides
            only ``initial_accuracies`` for warm starts.
        warm_start: seed each epoch's fusion with the previous epoch's
            converged accuracies (new sources start at
            :data:`~repro.fusion.pipeline.INITIAL_ACCURACY`).  Cuts rounds-to-reconverge on
            quiet feeds; turn off to make every epoch bit-identical to a
            cold batch run over the accumulated claims.
    """

    def __init__(
        self,
        store: "VerdictStore | Path | str | None" = None,
        params: CopyParams | None = None,
        config: FusionConfig | None = None,
        warm_start: bool = True,
    ):
        from ..serving.store import VerdictStore

        if store is not None and not isinstance(store, VerdictStore):
            store = VerdictStore(store)
        self.store = store
        self.params = params or CopyParams()
        self.config = config or FusionConfig()
        self.warm_start = warm_start
        self.ledger = ClaimLedger()
        self.state: EpochState | None = None
        self._epoch = 0
        self._publisher = None

    # ------------------------------------------------------------------
    # The epoch step
    # ------------------------------------------------------------------
    def run_epoch(self, deltas: Sequence[ClaimDelta]) -> EpochResult:
        """Fold one micro-batch in, re-fuse, publish; returns the record."""
        return self.commit(self.prepare(deltas))

    def prepare(self, deltas: Sequence[ClaimDelta]) -> PreparedEpoch:
        """Fold a batch into a fork of the ledger and fuse it; publish nothing.

        Reads the committed ledger and state (the warm start) and leaves
        them, and the store, untouched — a prepare can be dropped at no
        cost but its own, and one that raises leaves nothing to undo.
        """
        start = time.perf_counter()
        base = self.ledger
        ledger = base.fork()
        update = ledger.apply(deltas)
        state = fusion = None
        if not (update.is_noop and self.state is not None) and len(ledger):
            dataset = ledger.snapshot()
            fusion = self._fuse(dataset)
            state = EpochState(
                epoch=self._epoch + 1,
                ledger_version=ledger.version,
                dataset=dataset,
                params=self.params,
                probabilities=tuple(fusion.probabilities),
                accuracies=tuple(fusion.accuracies),
                chosen=dict(fusion.chosen),
                detection=fusion.final_detection(),
                snapshot_id=None,
                conflict=fusion.final_conflict(),
                credibility=(
                    tuple(fusion.credibility)
                    if fusion.credibility is not None
                    else None
                ),
            )
        return PreparedEpoch(
            base, ledger, update, state, fusion, time.perf_counter() - start
        )

    def commit(self, prepared: PreparedEpoch) -> EpochResult:
        """Publish a prepared epoch, then adopt its ledger and state.

        Raises:
            ValueError: ``prepared`` was folded onto a ledger that is no
                longer the committed one (another epoch committed since).
        """
        start = time.perf_counter()
        if prepared.base is not self.ledger:
            raise ValueError("the epoch was prepared against a stale ledger")
        state = prepared.state
        if state is not None:
            state = replace(state, snapshot_id=self._publish(state))
            self._epoch, self.state = state.epoch, state
        self.ledger = prepared.ledger
        dataset = self.ledger.snapshot()
        return EpochResult(
            epoch=self._epoch,
            update=prepared.update,
            skipped=state is None,
            fusion=prepared.fusion,
            snapshot_id=self.state.snapshot_id if self.state else None,
            n_sources=dataset.n_sources,
            n_items=dataset.n_items,
            prepare_seconds=prepared.seconds,
            commit_seconds=time.perf_counter() - start,
        )

    def _fuse(self, dataset: Dataset) -> FusionResult:
        """Run the epoch's fusion loop over the frozen snapshot."""
        cfg = self.config
        if self.warm_start and self.state is not None:
            previous = list(self.state.accuracies)
            if cfg.credibility is None:
                pad = [INITIAL_ACCURACY] * (dataset.n_sources - len(previous))
            else:
                # Sources that appeared mid-stream never saw the cold
                # start, so their pad must honour the same credibility
                # prior a cold run would apply — otherwise a grown DS
                # epoch and a cold batch run over the accumulated claims
                # would disagree on the newcomers' starting accuracies.
                names = dataset.source_names
                pad = [
                    cfg.credibility.initial_accuracy_for(
                        INITIAL_ACCURACY, source_id=sid, name=names[sid]
                    )
                    for sid in range(len(previous), dataset.n_sources)
                ]
            cfg = replace(cfg, initial_accuracies=previous + pad)

        return run_fusion(
            dataset,
            self.params,
            SingleRoundDetector(self.params, "index"),
            cfg,
        )

    def _publish(self, state: EpochState) -> int | None:
        """Write an epoch's verdicts + truths to the store, if any."""
        if self.store is None:
            return None
        from ..serving.store import SnapshotPublisher

        if self._publisher is None:
            self._publisher = SnapshotPublisher(self.store, state.dataset, self.params)
        else:
            self._publisher.rebind(state.dataset)

        return self._publisher.publish_round(
            state.epoch, state.detection, list(state.probabilities)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release nothing: the engine holds nothing open between epochs.

        Each epoch's :func:`~repro.fusion.run_fusion` closes its own
        workspace and the store keeps no file open; ``close`` stays so
        the engine remains a context manager its callers can enter.
        """

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_epochs(
    epochs: Sequence[Sequence[ClaimDelta]],
    store: "VerdictStore | Path | str | None" = None,
    params: CopyParams | None = None,
    warm_start: bool = True,
) -> list[EpochResult]:
    """Drive a fresh :class:`StreamEngine` over pre-partitioned epochs.

    This is the batch-mode twin of the live service: identical engine,
    identical epoch boundaries, no event loop.  The lockstep-parity
    tests feed the same partitions to both and assert exact equality of
    every epoch's verdicts, accuracies and truths.
    """
    with StreamEngine(store=store, params=params, warm_start=warm_start) as engine:
        return [engine.run_epoch(epoch) for epoch in epochs]
