"""The local executors: where a partitioned scan's tasks run.

An *executor* is anything with::

    map_reduce(world, partitions, params, reduce_mode)
        -> merged partial | None
    close()

``world`` is the round's :class:`~repro.parallel.engine.ScanWorld`,
``partitions`` the non-empty entry-position shares (``range`` objects),
``reduce_mode`` ``"flat"`` or ``"tree"``; the result is None when every
partial came back empty.
Each implementation owns its lifetime state and releases it in an
idempotent ``close()``; a :class:`~repro.fusion.FusionWorkspace` holds
the executors, which is what keeps that state alive across fusion rounds.
``"remote"`` is :class:`repro.cluster.ClusterExecutor`, which speaks the
same protocol over its TCP session.

Pools are created by the first round that needs one and sized to the
core count, never to that round's task count — a later round with more
partitions must not be capped by an earlier, narrower one.  A round with
a single partition has nothing to overlap, so every local executor runs
it inline without starting a pool or a shared block.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor


class SerialExecutor:
    """Run the tasks in order in the calling thread (the deterministic
    reference); owns nothing."""

    def _tasks(self, world, partitions, params) -> list:
        """One self-contained ``(fn, args)`` task per partition."""
        return [world.task(positions, params) for positions in partitions]

    def map_reduce(self, world, partitions, params, reduce_mode):
        """Scan every partition and reduce the partials (see the module doc)."""
        # Always the payload form: an inline round starts no shared block.
        tasks = SerialExecutor._tasks(self, world, partitions, params)
        return world.reduce([fn(*args) for fn, args in tasks], params, reduce_mode)

    def close(self) -> None:
        """Release the executor's resources (idempotent)."""


class ThreadsExecutor(SerialExecutor):
    """Run the tasks on a persistent thread pool.  CPython's GIL
    serialises the pure-Python math, so this demonstrates plumbing rather
    than speedup, but it exercises real concurrency in the merge path."""

    _pool_type = ThreadPoolExecutor
    _pool = None

    def map_reduce(self, world, partitions, params, reduce_mode):
        """Scan the partitions concurrently and reduce the partials."""
        if len(partitions) < 2:
            return super().map_reduce(world, partitions, params, reduce_mode)
        tasks = self._tasks(world, partitions, params)
        if self._pool is None:
            self._pool = self._pool_type(max_workers=os.cpu_count() or 1)
        futures = [self._pool.submit(fn, *args) for fn, args in tasks]
        try:
            partials = [future.result() for future in futures]
        except BrokenExecutor:
            # A worker died: the pool is unusable for every later round.
            # Retire it so the next round builds a fresh one instead of
            # resubmitting into the corpse; this round still fails.
            self._pool.shutdown(wait=False)
            self._pool = None
            raise
        return world.reduce(partials, params, reduce_mode)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessesExecutor(ThreadsExecutor):
    """Run the tasks on a persistent process pool.

    Under the numpy backend the columnar world is broadcast **once**
    through a :class:`~repro.parallel.shm.SharedWorld` block and each
    task ships only its partition's entry positions; later rounds rewrite
    the block in place, so workers keep their attachments.  Where shared
    memory is unavailable the tasks carry pickled per-partition payloads
    instead (the Hadoop analogue of shipping a partition to a node) —
    same scan, same bytes.
    """

    _pool_type = ProcessPoolExecutor
    _shared = None

    def _tasks(self, world, partitions, params) -> list:
        if world.columnar:
            import numpy as np

            from .shm import SharedWorld, scan_shm_partition

            cols, accuracies = world.cols, world.accuracies
            try:
                if self._shared is None or not self._shared.write(cols, accuracies):
                    # First round, or the world no longer fits the block.
                    self._close_shared()
                    self._shared = SharedWorld.create(
                        cols, accuracies, world.n_sources
                    )
            except OSError:
                # No usable shared memory on this platform (e.g. read-only
                # or missing /dev/shm): pickle payloads instead.
                pass
            else:
                handle = self._shared.handle
                return [
                    (
                        scan_shm_partition,
                        (handle, np.asarray(positions, dtype=np.int64), params),
                    )
                    for positions in partitions
                ]
        return super()._tasks(world, partitions, params)

    def _close_shared(self) -> None:
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def close(self) -> None:
        """Shut the pool down and unlink the shared block (idempotent)."""
        super().close()
        self._close_shared()


#: The in-process executor classes by :data:`~repro.core.params.EXECUTORS`
#: name (``"remote"`` is :class:`repro.cluster.ClusterExecutor`).
LOCAL_EXECUTORS = {
    "serial": SerialExecutor,
    "threads": ThreadsExecutor,
    "processes": ProcessesExecutor,
}
