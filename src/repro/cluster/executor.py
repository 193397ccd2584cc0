"""Driver-side cluster executor: broadcast, schedule, collect, reduce.

:class:`ClusterExecutor` is the remote implementation of the executor
protocol the in-process ones in :mod:`repro.parallel.executors` follow:
the parallel engine hands it the same world and position partitions and
gets back one merged :class:`~repro.core.kernel.PairTable`, so results
are bit-identical to the local executors by construction —

* the map step runs the identical :func:`scan_columnar` over identical
  bytes (arrays travel as raw buffers, never re-encoded floats), and
  each worker answers a task with its partial table;
* the reduce step *is* the local executors' one: the driver collects
  the partials in partition order and calls
  :meth:`ScanWorld.reduce <repro.parallel.engine.ScanWorld.reduce>`, so
  ``"flat"`` and ``"tree"`` mean exactly what they mean in-process.
  The price is on the wire: the driver receives every partial, not one
  merged root.

Scheduling is :func:`assign_buckets_lpt` over each partition's
pair-incidence count, derived from the world's own offsets: partitions
are independent of the worker count, so 7 partitions run on 1, 2 or 4
workers with identical results and balanced busy time.

The world (columnar entries + accuracies) is broadcast to each worker
**once per executor session** and thereafter rewritten in place via
``world-update`` frames carrying only the fields whose bytes changed,
so multi-round fusion never re-ships an unchanged provider structure.

Fault handling: a worker dying mid-round (killed process, dropped
socket, hung past the timeout) marks its connection dead and the whole
round — scans are pure and no worker keeps a partial — is retried
once on the surviving workers.  A second failure, or a round with no
workers left, raises one clear
:class:`~repro.cluster.wire.ClusterError`; callers never see a raw
``ConnectionResetError``.
"""

from __future__ import annotations

import heapq
import os
import socket
import threading
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.kernel import PairTable, world_arrays
from ..data.frames import layout_arrays
from .wire import ClusterError, recv_message, send_message

#: How many times a failed round is re-run on the surviving workers
#: before :meth:`ClusterExecutor.map_reduce` gives up.
ROUND_RETRIES = 1


def assign_buckets_lpt(weights: Iterable[int], n_buckets: int) -> list[list[int]]:
    """Assign weighted tasks to buckets, longest-processing-time first.

    The tasks are whole partitions and the buckets cluster workers, so
    partition count stays independent of worker count — 7 partitions
    schedule onto 1, 2 or 4 workers with identical results.  Ties break
    deterministically (heavier first, then lower task index, then lower
    bucket id) and each bucket's tasks come back in task order.

    Raises:
        ValueError: for a non-positive bucket count.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    ordered = sorted(enumerate(weights), key=lambda iw: (-iw[1], iw[0]))
    heap = [(0, bucket_id) for bucket_id in range(n_buckets)]
    buckets: list[list[int]] = [[] for _ in range(n_buckets)]
    for task, weight in ordered:
        load, bucket_id = heapq.heappop(heap)
        buckets[bucket_id].append(task)
        heapq.heappush(heap, (load + weight, bucket_id))
    return [sorted(bucket) for bucket in buckets]


@dataclass
class WorkerStats:
    """Per-worker wire and timing accounting (one per connection).

    Attributes:
        tasks: scan tasks executed.
        worlds: full world broadcasts received (the broadcast-once
            proof: stays at 1 across a multi-round fusion session).
        updates: in-place ``world-update`` frames received.
        world_bytes: bytes of full world broadcasts.
        update_bytes: bytes of world-update frames.
        task_bytes: bytes of task frames (positions + params).
        result_bytes: bytes of partial tables received back.
        busy_seconds: worker-reported scan time.
        failures: rounds this worker died in.
    """

    tasks: int = 0
    worlds: int = 0
    updates: int = 0
    world_bytes: int = 0
    update_bytes: int = 0
    task_bytes: int = 0
    result_bytes: int = 0
    busy_seconds: float = 0.0
    failures: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for JSON artifacts and tests)."""
        return dict(self.__dict__)


@dataclass
class ClusterStats:
    """Aggregated executor statistics across all workers.

    Attributes:
        workers: per-address :class:`WorkerStats`.
        rounds: map/reduce rounds executed.
        retries: rounds that were re-run after a worker death.
    """

    workers: dict[str, WorkerStats] = field(default_factory=dict)
    rounds: int = 0
    retries: int = 0

    def _total(self, name: str):
        return sum(getattr(w, name) for w in self.workers.values())

    @property
    def broadcast_bytes(self) -> int:
        """Bytes shipped as full world broadcasts, all workers."""
        return self._total("world_bytes")

    @property
    def update_bytes(self) -> int:
        """Bytes shipped as in-place world updates, all workers."""
        return self._total("update_bytes")

    @property
    def task_bytes(self) -> int:
        """Bytes shipped as task frames, all workers."""
        return self._total("task_bytes")

    @property
    def result_bytes(self) -> int:
        """Bytes received back as partial tables, all workers."""
        return self._total("result_bytes")

    def as_dict(self) -> dict:
        """Plain-dict view (for JSON artifacts and tests)."""
        return {
            "rounds": self.rounds,
            "retries": self.retries,
            "broadcast_bytes": self.broadcast_bytes,
            "update_bytes": self.update_bytes,
            "task_bytes": self.task_bytes,
            "result_bytes": self.result_bytes,
            "workers": {
                label: stats.as_dict() for label, stats in self.workers.items()
            },
        }

    def summary(self) -> str:
        """Multi-line human summary (the CLI's ``--executor remote`` report)."""
        lines = [
            f"cluster: {len(self.workers)} worker(s), {self.rounds} round(s)"
            + (f", {self.retries} retried" if self.retries else "")
            + f" | world {self.broadcast_bytes:,} B broadcast"
            + f" + {self.update_bytes:,} B updates"
            + f" | tasks {self.task_bytes:,} B out, {self.result_bytes:,} B back"
        ]
        for label, w in self.workers.items():
            state = " [dead]" if w.failures else ""
            lines.append(
                f"  {label}{state}: {w.tasks} task(s), "
                f"world x{w.worlds} + {w.updates} update(s), "
                f"busy {w.busy_seconds:.3f}s"
            )
        return "\n".join(lines)


class _Connection:
    """One persistent driver->worker socket with byte accounting."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.label = f"{host}:{port}"
        self.timeout = timeout
        self.alive = True
        self.world_sent = False
        self.stats = WorkerStats()
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ClusterError(
                f"cannot connect to cluster worker {self.label} ({exc})"
            ) from exc

    def request(self, kind, meta=None, arrays=None, bucket: str | None = None):
        """One round-trip; marks the connection dead on any failure.

        Returns ``(reply_kind, reply_meta, reply_arrays)``.  An
        ``error`` reply (the worker rejected the message) raises
        without killing the connection; a transport failure (reset,
        hangup, timeout) marks the worker dead first.
        """
        try:
            sent = send_message(self.sock, kind, meta, arrays)
            reply = recv_message(self.sock)
        except ClusterError as exc:
            self.alive = False
            raise ClusterError(f"worker {self.label} died: {exc}") from exc
        if bucket is not None:
            setattr(self.stats, bucket, getattr(self.stats, bucket) + sent)
        rkind, rmeta, rarrays = reply
        if rkind == "error":
            raise ClusterError(f"worker {self.label}: {rmeta.get('error')}")
        return rkind, rmeta, rarrays

    def close(self):
        """Close the socket (idempotent, best-effort)."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close never matters
            pass


def parse_worker_spec(spec) -> list[tuple[str, int]]:
    """Parse a worker list: ``"host:port,host:port"`` or a sequence.

    Sequence elements may be ``"host:port"`` strings or ``(host, port)``
    pairs; None reads the ``REPRO_CLUSTER_WORKERS`` environment
    variable.  Raises :class:`ClusterError` on anything malformed.
    """
    if spec is None:
        spec = os.environ.get("REPRO_CLUSTER_WORKERS", "").strip()
        if not spec:
            raise ClusterError(
                "executor='remote' needs workers: pass cluster=/--workers "
                "host:port[,host:port...] or set REPRO_CLUSTER_WORKERS"
            )
    if isinstance(spec, str):
        spec = [part for part in spec.split(",") if part.strip()]
    addresses = []
    for entry in spec:
        if isinstance(entry, str):
            host, sep, port = entry.strip().rpartition(":")
            if not sep or not host:
                raise ClusterError(
                    f"bad worker address {entry!r}; expected host:port"
                )
        else:
            host, port = entry
        try:
            addresses.append((host, int(port)))
        except (TypeError, ValueError) as exc:
            raise ClusterError(f"bad worker address {entry!r} ({exc})") from exc
    if not addresses:
        raise ClusterError("empty cluster worker list")
    return addresses


class ClusterExecutor:
    """Remote executor over a fixed set of cluster workers.

    Args:
        workers: worker addresses (see :func:`parse_worker_spec`).
        timeout: per-request socket timeout in seconds (covers the
            longest single partition scan).

    Follows the executor protocol of :mod:`repro.parallel.executors`:
    the parallel engine calls :meth:`map_reduce` once per round (which
    starts with a :meth:`broadcast` of the round's world); :meth:`close`
    tears the session down.  Also a context manager.
    """

    def __init__(self, workers, timeout: float = 120.0):
        addresses = parse_worker_spec(workers)
        self.session = f"sess-{os.urandom(6).hex()}"
        self.timeout = timeout
        self.stats = ClusterStats()
        self._world_cache: dict[str, np.ndarray] | None = None
        self._closed = False
        self._connections: list[_Connection] = []
        try:
            for host, port in addresses:
                conn = _Connection(host, port, timeout)
                self._connections.append(conn)
                self.stats.workers[conn.label] = conn.stats
            # Fail fast on a protocol mismatch before any world is packed.
            for conn in self._connections:
                conn.request("ping")
        except ClusterError:
            for conn in self._connections:
                conn.close()
            raise

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (connections are gone)."""
        return self._closed

    @property
    def n_workers(self) -> int:
        """Workers still alive."""
        return len(self._alive())

    @property
    def addresses(self) -> list[str]:
        """All configured worker addresses (dead ones included)."""
        return [conn.label for conn in self._connections]

    def _alive(self) -> list[_Connection]:
        alive = [conn for conn in self._connections if conn.alive]
        if not alive:
            raise ClusterError(
                "no cluster workers left alive "
                f"(all {len(self._connections)} died this session)"
            )
        return alive

    # -- world broadcast ------------------------------------------------
    def broadcast(self, cols, accuracies, n_sources: int) -> None:
        """Ship the columnar world to every live worker.

        First call per session sends the full ``world`` frame; later
        calls send ``world-update`` frames carrying only the fields
        whose bytes actually changed (none at all when the world is
        unchanged), falling back to a full broadcast when a worker
        answers ``stale`` or any array's length/dtype changed.
        """
        arrays = world_arrays(cols, accuracies)
        cache = self._world_cache
        changed = None  # first broadcast, or the layout moved: ship it all
        if cache is not None and layout_arrays(cache)[0] == layout_arrays(arrays)[0]:
            changed = {
                name: arr
                for name, arr in arrays.items()
                if not np.array_equal(cache[name], arr)
            }
        for conn in self._alive():
            try:
                self._broadcast_one(conn, arrays, changed, n_sources)
            except ClusterError:
                if conn.alive:
                    raise  # protocol rejection, not a death: a real bug
                conn.stats.failures += 1
        self._alive()  # every worker died mid-broadcast: give up clearly
        self._world_cache = arrays

    def _broadcast_one(self, conn, arrays, changed, n_sources) -> None:
        if conn.world_sent and changed is not None:
            if not changed:
                return  # bit-identical world: nothing to ship
            kind, _, _ = conn.request(
                "world-update",
                {"session": self.session},
                changed,
                bucket="update_bytes",
            )
            if kind == "ok":
                conn.stats.updates += 1
                return
            # "stale": the worker lost the session; fall through to a
            # full broadcast.
        conn.request(
            "world",
            {"session": self.session, "n_sources": n_sources},
            arrays,
            bucket="world_bytes",
        )
        conn.stats.worlds += 1
        conn.world_sent = True

    # -- map + reduce ---------------------------------------------------
    def map_reduce(
        self,
        world,
        partitions: Sequence[Sequence[int]],
        params,
        reduce_mode,
    ) -> PairTable | None:
        """Broadcast the world, scan every partition remotely, reduce.

        Args:
            world: the round's columnar
                :class:`~repro.parallel.engine.ScanWorld`.
            partitions: one entry-position sequence per partition
                (already filtered of empties by the engine), scheduled
                onto the workers by their pair-incidence counts.
            params: the round's :class:`~repro.core.params.CopyParams`.
            reduce_mode: ``"flat"`` or ``"tree"`` — same associativity
                as the in-process executors' reduce.

        Returns:
            The merged table, or None when every partition scanned
            empty.

        Raises:
            ClusterError: after a failed retry or with no live workers.
        """
        if not partitions:
            return None
        self.broadcast(world.cols, world.accuracies, world.n_sources)
        position_arrays = [
            np.asarray(positions, dtype=np.int64) for positions in partitions
        ]
        last_error: ClusterError | None = None
        for attempt in range(ROUND_RETRIES + 1):
            alive = self._alive()  # raises when none remain
            try:
                self.stats.rounds += 1
                if attempt:
                    self.stats.retries += 1
                return self._run_round(
                    world, alive, position_arrays, params, reduce_mode
                )
            except ClusterError as exc:
                for conn in alive:
                    if not conn.alive:
                        conn.stats.failures += 1
                last_error = exc
        raise ClusterError(
            f"cluster round failed and its retry failed too: {last_error}"
        ) from last_error

    def _run_round(
        self, world, alive, position_arrays, params, reduce_mode
    ) -> PairTable | None:
        params_meta = asdict(params)
        partials: list[PairTable | None] = [None] * len(position_arrays)
        errors: list[ClusterError] = []

        def run_tasks(conn, task_indices):
            try:
                for ti in task_indices:
                    _, meta, arrays = conn.request(
                        "task",
                        {
                            "session": self.session,
                            "task": f"r{self.stats.rounds}.t{ti}",
                            "params": params_meta,
                        },
                        {"positions": position_arrays[ti]},
                        bucket="task_bytes",
                    )
                    conn.stats.tasks += 1
                    conn.stats.busy_seconds += float(meta["busy_seconds"])
                    # Payload bytes of the partial (frame headers not counted).
                    conn.stats.result_bytes += sum(a.nbytes for a in arrays.values())
                    partials[ti] = PairTable(
                        n_sources=int(meta["n_sources"]),
                        keys=arrays["keys"],
                        c_fwd=arrays["c_fwd"],
                        c_bwd=arrays["c_bwd"],
                        n_shared=arrays["n_shared"],
                        saw_main=arrays["saw_main"].view(bool),
                    )
            except ClusterError as exc:
                errors.append(exc)

        # One thread per worker runs its LPT bucket in order on its single
        # socket; the first failure is re-raised once every thread is done,
        # so each death is recorded before the retry decision.  A task's
        # weight is its pair-incidence count: k(k-1)/2 per k-provider entry.
        k = np.diff(world.cols.offsets)
        pairs = k * (k - 1) // 2
        weights = [int(pairs[positions].sum()) for positions in position_arrays]
        buckets = assign_buckets_lpt(weights, len(alive))
        threads = [
            threading.Thread(target=run_tasks, args=(conn, bucket), daemon=True)
            for conn, bucket in zip(alive, buckets)
            if bucket
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return world.reduce(partials, params, reduce_mode)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """End the session on every worker and drop all connections."""
        if self._closed:
            return
        self._closed = True
        for conn in self._connections:
            if conn.alive:
                try:
                    conn.request("end-session", {"session": self.session})
                except ClusterError:
                    pass
            conn.close()

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
