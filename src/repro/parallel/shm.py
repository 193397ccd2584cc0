"""Shared-memory broadcast of the columnar world to process-pool workers.

The parallel engine's original process-pool path pickled one columnar
payload *per partition* — at P partitions the provider/probability arrays
cross the process boundary P times, and the payload construction itself
(per-partition gathers in the parent) is serial work that grows with P.
This module broadcasts the whole world **once** instead:

1. The parent packs the :class:`~repro.core.kernel.ColumnarEntries` of
   the full index plus the clamped accuracy vector into a single
   :class:`multiprocessing.shared_memory.SharedMemory` block
   (:class:`SharedWorld`).
2. Each task ships only a tiny :class:`ShmWorldHandle` (the block name
   plus per-array dtype/offset/length metadata) and the partition's entry
   positions.
3. Workers attach to the block *once per process* (module-level cache),
   reconstruct zero-copy array views over the buffer, and slice their
   partition out with :meth:`ColumnarEntries.take`.

The block is a plain :mod:`repro.data.frames` array block holding the
:func:`~repro.core.kernel.world_arrays` of the world; the handle's
``fields`` is its array table.

The process executor (:mod:`repro.parallel.executors`) falls back to
pickled per-partition payloads whenever shared memory is unavailable
(platforms without ``/dev/shm``, permission errors, or an interpreter
built without ``multiprocessing.shared_memory``) — the scan itself is
byte-for-byte the same either way, so the fallback changes performance
only, never results.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.kernel import (
    ColumnarEntries,
    scan_columnar,
    world_arrays,
    world_from_arrays,
)
from ..data.frames import layout_arrays, view_arrays, write_arrays

#: Every live parent-side SharedWorld.  Weak references: a world that is
#: garbage-collected drops out on its own (``__del__`` unlinks it), and
#: the :func:`_cleanup_live_worlds` atexit hook sweeps whatever is still
#: alive when the interpreter exits — e.g. a workspace abandoned after a
#: process-pool worker died mid-round — so no ``/dev/shm`` segment can
#: outlive the process.  ``close()`` is idempotent, so a world being
#: swept twice (hook + __del__, or an explicit close before either) never
#: double-unlinks or warns.
_LIVE_WORLDS: "weakref.WeakSet[SharedWorld]" = weakref.WeakSet()


def _cleanup_live_worlds() -> None:
    """atexit safety net: unlink any shm block still owned by this process."""
    for world in list(_LIVE_WORLDS):
        try:
            world.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


atexit.register(_cleanup_live_worlds)


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can actually allocate."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - all supported platforms have it
        return False
    try:
        block = shared_memory.SharedMemory(create=True, size=1)
    except OSError:  # pragma: no cover - e.g. read-only /dev/shm
        return False
    block.close()
    block.unlink()
    return True


@dataclass(frozen=True)
class ShmWorldHandle:
    """Pickle-cheap descriptor of a broadcast world.

    Attributes:
        name: the shared-memory block's system-wide name.
        fields: ``(field, dtype, byte_offset, n_elements)`` per array, in
            the order they were packed.
        n_sources: source count (workers size the dense reduce grid by it).
    """

    name: str
    fields: tuple[tuple[str, str, int, int], ...]
    n_sources: int


def _attach(handle: ShmWorldHandle):
    """Attach to a broadcast block (worker side)."""
    from multiprocessing import shared_memory

    try:
        # Python 3.13+: opt out of resource tracking — the parent owns
        # the block's lifetime and unlinks it.
        return shared_memory.SharedMemory(name=handle.name, track=False)
    except TypeError:
        # Pre-3.13 interpreters register the attachment with the resource
        # tracker too.  The tracker's name cache is shared across the
        # process tree (registrations of the same name collapse), so the
        # parent's unlink-time unregister clears it — workers must NOT
        # unregister themselves or the tracker sees double removals.
        return shared_memory.SharedMemory(name=handle.name)


#: Worker-process cache of the *current* broadcast block — ``name ->
#: (block, cols, accuracies)``, at most one entry — reused by every task
#: the worker executes (the pool outlives the tasks).
_ATTACHED: dict = {}


def attached_world(handle: ShmWorldHandle):
    """Worker-side accessor: ``(ColumnarEntries, accuracies)`` views.

    The views are zero-copy over the shared block; the attachment is
    cached per process so the cost is paid once per worker, not per
    partition.  A new block name means the parent replaced the block (a
    world that outgrew it) and already unlinked the old one, so the stale
    mapping is closed instead of staying mapped for the pool's lifetime.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is None:
        while _ATTACHED:
            # Indexing drops the tuple, and with it the last views into
            # the stale buffer, before close() releases the mapping.
            _ATTACHED.popitem()[1][0].close()
        block = _attach(handle)
        cached = (block, *world_from_arrays(view_arrays(block.buf, handle.fields)))
        _ATTACHED[handle.name] = cached
    return cached[1], cached[2]


class SharedWorld:
    """Parent-side owner of one broadcast block (context manager).

    Usage::

        with SharedWorld.create(cols, accuracies, n_sources) as world:
            pool.submit(worker, world.handle, positions, ...)

    The block is unlinked on exit; workers hold attachments only for the
    lifetime of their pool.
    """

    def __init__(self, block, handle: ShmWorldHandle):
        self._block = block
        self.handle = handle
        _LIVE_WORLDS.add(self)

    @classmethod
    def create(
        cls,
        cols: ColumnarEntries,
        accuracies: Sequence[float] | np.ndarray,
        n_sources: int,
    ) -> "SharedWorld":
        """Pack a columnar world + accuracies into one fresh shm block.

        Raises:
            OSError: when the platform cannot allocate shared memory (the
                process executor catches this and pickles per-partition
                payloads instead).
        """
        from multiprocessing import shared_memory

        arrays = world_arrays(cols, accuracies)
        fields, size = layout_arrays(arrays)
        block = shared_memory.SharedMemory(create=True, size=max(size, 1))
        write_arrays(block.buf, fields, arrays)
        handle = ShmWorldHandle(
            name=block.name, fields=tuple(fields), n_sources=n_sources
        )
        return cls(block, handle)

    def write(
        self,
        cols: ColumnarEntries,
        accuracies: Sequence[float] | np.ndarray,
    ) -> bool:
        """Rewrite the packed arrays in place (the round-reuse fast path).

        A fusion round re-broadcasts fresh probabilities, main/tail flags
        and accuracies — and a (re-ordered) view of the same frozen
        provider structure, so every field keeps its length.  Rewriting
        the buffer under the *same* block name means worker processes
        keep their cached zero-copy attachments (:func:`attached_world`)
        and the persistent pool never re-attaches; callers must only do
        this between rounds, when no task is in flight.

        Returns:
            True after a successful in-place rewrite; False when the
            block is already closed or any array length changed (the
            caller creates a fresh block instead).
        """
        if self._block is None:
            return False
        arrays = world_arrays(cols, accuracies)
        # Offsets follow from dtypes and lengths, so equal tables mean
        # every array still fits exactly where it was.
        if tuple(layout_arrays(arrays)[0]) != self.handle.fields:
            return False
        write_arrays(self._block.buf, self.handle.fields, arrays)
        return True

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        if self._block is None:
            return
        self._block.close()
        try:
            self._block.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._block = None
        _LIVE_WORLDS.discard(self)

    def __enter__(self) -> "SharedWorld":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # Last-resort unlink for worlds dropped without close() — e.g. an
        # owner torn down abruptly after a pool worker died.  close() is
        # idempotent and the atexit sweep tolerates both orders.
        try:
            self.close()
        except Exception:
            pass


def scan_shm_partition(handle: ShmWorldHandle, positions, params):
    """Map step over a broadcast world: slice a partition, scan it.

    Top-level (picklable) so the engine can submit it to worker
    processes; ``positions`` is the only per-task payload of any size.
    """
    cols, accuracies = attached_world(handle)
    part = cols.take(np.asarray(positions, dtype=np.int64))
    return scan_columnar(part, accuracies, params, handle.n_sources)
