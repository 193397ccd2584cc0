"""The asyncio ingestion loop: micro-batching, debounce, drain, fan-out.

:class:`StreamingService` is the always-on layer between delta producers
and the synchronous :class:`~repro.streaming.engine.StreamEngine`.  Its
single job is deciding *when* a micro-batch becomes an epoch:

* **size trigger** — ``max_batch`` pending deltas flush immediately;
* **deadline trigger** — the first pending delta starts a ``max_delay``
  clock; the batch flushes when it expires no matter what;
* **per-source debounce** — while any pending source keeps sending
  (its last arrival is younger than ``debounce``), the flush waits for
  the burst to end, bounded by the deadline.  The flush instant is
  ``min(first_arrival + max_delay, newest_arrival + debounce)``.

Every flushed batch is first collapsed by
:func:`~repro.data.coalesce_deltas` (one delta per ``(source, item)``,
first-arrival position, last value), then handed to the engine **in a
single-worker thread executor** — fusion is CPU-bound and must not
stall the event loop, and one worker guarantees epochs are serialized.
A batch the ledger proves to be a no-op (pure re-confirmations) runs no
fusion and publishes no snapshot.

**When the work runs.**  The triggers decide only what an epoch holds;
the work starts while the batch is still pending.  Once the feed looks
quiet and the worker is idle, the loop hands
:meth:`~repro.streaming.engine.StreamEngine.prepare` the coalesced
pending batch — a *speculative* prepare, which changes nothing the
engine serves.  At the flush, a prepare that covers exactly the flushed
batch is committed (publish + swap: a claim's freshness is then the
debounce plus the commit, not the debounce plus the whole epoch);
otherwise it is discarded and the flushed batch is prepared then.  At
most one prepare is in flight; a prepare that a later arrival made
stale is replaced as soon as the worker frees up.

"Quiet" is read off the arrivals: those closer together than
``debounce`` form one burst, and a prepare waits until the newest
arrival is older than the burst's longest gap (and at least
:data:`SPECULATION_GRACE`).  A lone POST is prepared 2 ms after it
lands; a steady feed that never pauses for its own longest gap — whose
batches flush on the deadline — is prepared at the flush, as it would
be without speculation, instead of once per arrival.  Speculation pays
when the feed goes quiet before the flush for about one prepare; every
discarded prepare is CPU spent for nothing, counted in ``/stats``.

**Failure.**  An epoch that raises drops its batch (the prepare is a
deterministic function of the batch, so a retry would fail again),
counts it in ``epochs_failed`` / ``last_error`` and leaves ledger,
state and store as they were; the loop serves the next arrival.

Completed epochs fan out to subscribers (:meth:`subscribe` returns an
``asyncio.Queue`` of event dicts — the SSE layer drains one per client)
and refresh the service's :class:`~repro.serving.VerdictReader`, so
:meth:`get_verdict`/:meth:`get_truth` always answer from the snapshot
the store just published, version tag included.

Shutdown is graceful by default: :meth:`stop` flushes whatever is
pending as one final epoch (``drain=True``), waits for it to publish,
then cancels the loop — only a failed epoch ever drops an accepted delta.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable

from ..data import ClaimDelta, coalesce_deltas
from .engine import EpochResult, EpochState, StreamEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.explain import PairExplanation
    from ..serving.reader import Truth, Verdict

_log = logging.getLogger(__name__)

#: Least seconds a speculative prepare waits after the newest arrival.  The
#: ``202`` is written before the loop can run, but its client still has
#: to read it and hang up (~0.1 ms of CPU); a CPU-bound prepare started
#: inside that window took a co-located client's POST from 1.0 to 3-5 ms
#: on a 2-vCPU host, even when started after the client's own close.
#: 2 ms is over ten times the client's need and 4% of the default
#: debounce, which a ~30 ms prepare still fits in.
SPECULATION_GRACE = 0.002


class StreamingService:
    """Micro-batching asyncio front end over a :class:`StreamEngine`.

    Args:
        engine: the epoch engine (the service takes ownership: its
            workspace is closed by :meth:`stop`).  Must have a store for
            the read API to work.
        max_batch: pending-delta count that flushes immediately.
        max_delay: hard deadline (seconds) from the first pending
            arrival to its epoch — the staleness bound.
        debounce: quiet period (seconds) a bursty source must hold
            before the batch flushes ahead of the deadline.
        queue_size: per-subscriber event queue capacity; a slow
            subscriber drops oldest events rather than stalling epochs.
    """

    def __init__(
        self,
        engine: StreamEngine,
        max_batch: int = 512,
        max_delay: float = 0.5,
        debounce: float = 0.05,
        queue_size: int = 256,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay <= 0 or debounce < 0:
            raise ValueError("max_delay must be > 0 and debounce >= 0")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.debounce = min(debounce, max_delay)
        self.queue_size = queue_size

        self._pending: list[ClaimDelta] = []
        self._first_arrival: float | None = None
        self._last_arrival: float = 0.0
        #: Longest gap between arrivals less than ``debounce`` apart since
        #: the feed last paused that long; a speculative prepare waits it out.
        self._burst_gap = 0.0
        self._arrival = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = False
        self._task: asyncio.Task | None = None
        self._subscribers: list[asyncio.Queue] = []
        self._reader = None
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="stream-epoch"
        )
        #: ``(pending deltas covered, future)`` of the speculative prepare.
        self._speculation: tuple[int, asyncio.Future] | None = None

        #: Ingestion counters, served by the HTTP ``/stats`` endpoint.
        self.claims_received = 0
        self.epochs_run = 0
        self.epochs_skipped = 0
        self.epochs_failed = 0
        self.last_error: str | None = None
        self.speculations_committed = 0
        self.speculations_discarded = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batching loop (idempotent)."""
        if self._task is None:
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(
                self._batch_loop()
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop the loop; by default drain pending deltas first.

        With ``drain=True`` (the default) any pending deltas are flushed
        as one final epoch — published, fanned out — before the loop
        exits; with ``drain=False`` pending deltas are discarded.  The
        engine's workspace is closed either way.
        """
        if self._task is not None:
            if not drain:
                self._pending.clear()
                self._first_arrival = None
            self._stopping = True
            self._arrival.set()
            await self._task
            self._task = None
        self._worker.shutdown(wait=True)
        self.engine.close()
        for queue in self._subscribers:
            self._offer(queue, {"type": "shutdown"})

    async def __aenter__(self) -> "StreamingService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(self, deltas: Iterable[ClaimDelta]) -> int:
        """Accept deltas into the pending batch; returns how many.

        Must be called on the event-loop thread (the HTTP layer does).
        Arrival timestamps feed the debounce/deadline triggers; the
        batch itself is coalesced only when a prepare takes it (at most
        one in flight) or at flush, so a burst costs appends, not scans.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        count = 0
        for delta in deltas:
            self._pending.append(delta)
            count += 1
        if count:
            if self._first_arrival is None:
                self._first_arrival = now
            gap = now - self._last_arrival
            self._burst_gap = max(self._burst_gap, gap) if gap < self.debounce else 0.0
            self._last_arrival = now
            self.claims_received += count
            self._idle.clear()
            self._arrival.set()
        return count

    async def flush(self) -> None:
        """Wait until everything currently pending has been epoch-ed
        (or dropped with its failed epoch, see ``epochs_failed``)."""
        await self._idle.wait()

    # ------------------------------------------------------------------
    # The batching loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._arrival.wait()
            self._arrival.clear()
            if not self._pending:
                if self._stopping:
                    return
                self._idle.set()
                continue
            # Wait out the debounce/deadline window (size trigger and
            # shutdown cut it short), preparing the pending batch meanwhile.
            while len(self._pending) < self.max_batch and not self._stopping:
                self._speculate(loop)
                deadline = min(
                    self._first_arrival + self.max_delay,
                    self._last_arrival + self.debounce,
                )
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    await asyncio.wait_for(self._arrival.wait(), timeout)
                except asyncio.TimeoutError:
                    break
                self._arrival.clear()

            await self._flush_epoch(loop)
            if not self._pending:
                self._idle.set()
                if self._stopping:
                    return

    def _speculate(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hand the pending batch to the idle worker ahead of its flush."""
        settled = self._last_arrival + max(SPECULATION_GRACE, self._burst_gap)
        if loop.time() < settled:
            loop.call_at(settled, self._arrival.set)  # look again then
            return
        if self._speculation is not None:
            covered, future = self._speculation
            if covered == len(self._pending) or not future.done():
                return  # still the pending batch, or the worker is busy
            self.speculations_discarded += 1
        future = loop.run_in_executor(
            self._worker, self.engine.prepare, coalesce_deltas(self._pending)
        )
        future.add_done_callback(self._prepared)
        self._speculation = (len(self._pending), future)

    def _prepared(self, future: asyncio.Future) -> None:
        """A speculative prepare finished: wake the loop to replace it if
        stale (its error, if any, belongs to the flush it covers)."""
        if not future.cancelled():
            future.exception()  # retrieved here so asyncio does not log it
        self._arrival.set()

    async def _flush_epoch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Commit the pending batch — through its speculative prepare when
        that covered exactly the deltas pending now."""
        covered, batch = len(self._pending), coalesce_deltas(self._pending)
        self._pending.clear()
        self._first_arrival = None
        speculation, self._speculation = self._speculation, None
        speculative = speculation is not None and speculation[0] == covered
        if speculation is not None and not speculative:
            self.speculations_discarded += 1  # the worker finishes it first
        try:
            prepared = await (
                speculation[1]
                if speculative
                else loop.run_in_executor(self._worker, self.engine.prepare, batch)
            )
            result = await loop.run_in_executor(
                self._worker, self.engine.commit, prepared
            )
        except Exception as exc:  # noqa: BLE001 - one batch, not the service
            _log.exception("epoch of %d deltas failed; batch dropped", len(batch))
            self.epochs_failed += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return
        self.speculations_committed += speculative
        self._on_epoch(result, speculative)

    def _on_epoch(self, result: EpochResult, speculative: bool) -> None:
        """Refresh the read view and fan the epoch out to subscribers."""
        if result.skipped:
            self.epochs_skipped += 1
            return
        self.epochs_run += 1
        if self._reader is not None:
            self._reader.refresh()
        event = {
            "type": "epoch",
            "epoch": result.epoch,
            "snapshot_id": result.snapshot_id,
            "n_sources": result.n_sources,
            "n_items": result.n_items,
            "changed_claims": result.update.changed_claims,
            "rounds": result.fusion.n_rounds if result.fusion else 0,
            "converged": bool(result.fusion and result.fusion.converged),
            "speculative": speculative,
            "prepare_seconds": result.prepare_seconds,
            "commit_seconds": result.commit_seconds,
            "elapsed_seconds": result.elapsed_seconds,
        }
        for queue in self._subscribers:
            self._offer(queue, event)

    @staticmethod
    def _offer(queue: asyncio.Queue, event: dict) -> None:
        """Enqueue without blocking; drop the oldest event when full."""
        while True:
            try:
                queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - race-free
                    return

    # ------------------------------------------------------------------
    # Subscriptions + live queries
    # ------------------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        """A fresh queue receiving one event dict per published epoch."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_size)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Stop delivering epochs to a queue from :meth:`subscribe`."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    @property
    def reader(self):
        """Lazy :class:`~repro.serving.VerdictReader` over the engine's store.

        Raises:
            RuntimeError: the engine has no store, or nothing has been
                published yet.
        """
        if self._reader is None:
            if self.engine.store is None:
                raise RuntimeError(
                    "the engine has no verdict store; queries need one"
                )
            from ..serving.reader import VerdictReader

            self._reader = VerdictReader(self.engine.store)
        return self._reader

    @property
    def state(self) -> EpochState | None:
        """The engine's latest immutable epoch state (None before epoch 1)."""
        return self.engine.state

    def get_verdict(self, s1: int, s2: int) -> "Verdict | None":
        """Served pair verdict from the freshest published snapshot."""
        return self.reader.get_verdict(s1, s2)

    def get_truth(self, item: int | str) -> "Truth | None":
        """Served fused truth from the freshest published snapshot."""
        return self.reader.get_truth(item)

    def explain_pair(self, s1: int, s2: int) -> "PairExplanation":
        """Live item-by-item evidence from the latest epoch state.

        Raises:
            RuntimeError: before the first epoch has run.
            PairNotObservedError: the pair was never opened.
        """
        state = self.engine.state
        if state is None:
            raise RuntimeError("no epoch has run yet")
        return state.explain(s1, s2)

    def stats(self) -> dict:
        """Ingestion/epoch counters plus the current world dimensions."""
        state = self.engine.state
        return {
            "claims_received": self.claims_received,
            "epochs_run": self.epochs_run,
            "epochs_skipped": self.epochs_skipped,
            "epochs_failed": self.epochs_failed,
            "last_error": self.last_error,
            "speculations_committed": self.speculations_committed,
            "speculations_discarded": self.speculations_discarded,
            "pending": len(self._pending),
            "epoch": state.epoch if state else 0,
            "snapshot_id": state.snapshot_id if state else None,
            "n_sources": state.dataset.n_sources if state else 0,
            "n_items": state.dataset.n_items if state else 0,
            "ledger_version": self.engine.ledger.version,
        }
