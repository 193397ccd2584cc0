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
idempotent ``close()``.  :func:`open_executor` builds them all; a
:class:`~repro.fusion.FusionWorkspace` keeps its executors alive across
fusion rounds, and a call without one closes its own before returning.
``"remote"`` is :class:`repro.cluster.ClusterExecutor`, which speaks the
same protocol over its TCP session; ``"processes"`` is that executor
over workers forked on this host.

Pools and clusters are created by the first round that needs one and
sized to the core count, never to that round's task count — a later
round with more partitions must not be capped by an earlier, narrower
one.  A round with a single partition has nothing to overlap, so every
local executor runs it inline without starting a pool or a worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from ..cluster import ClusterError, ClusterExecutor, LocalCluster, parse_worker_spec
from ..core.params import EXECUTORS


class SerialExecutor:
    """Run the tasks in order in the calling thread (the deterministic
    reference); owns nothing."""

    def map_reduce(self, world, partitions, params, reduce_mode):
        """Scan every partition and reduce the partials (see the module doc)."""
        partials = [world.scan(positions, params) for positions in partitions]
        return world.reduce(partials, params, reduce_mode)

    def close(self) -> None:
        """Release the executor's resources (idempotent)."""


class ThreadsExecutor(SerialExecutor):
    """Run the tasks on a persistent thread pool.  CPython's GIL
    serialises the pure-Python math, so this demonstrates plumbing rather
    than speedup, but it exercises real concurrency in the merge path."""

    _pool = None

    def map_reduce(self, world, partitions, params, reduce_mode):
        """Scan the partitions concurrently and reduce the partials."""
        if len(partitions) < 2:
            return super().map_reduce(world, partitions, params, reduce_mode)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
        futures = [
            self._pool.submit(world.scan, positions, params)
            for positions in partitions
        ]
        return world.reduce([f.result() for f in futures], params, reduce_mode)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessesExecutor(SerialExecutor):
    """Run the tasks on worker processes forked on this host.

    The first round with two or more partitions forks a
    :class:`~repro.cluster.LocalCluster` of one worker per core and
    drives it through its :class:`~repro.cluster.ClusterExecutor` — the
    ``"remote"`` transport over localhost — so the columnar world is
    broadcast once and later rounds ship only the fields that changed.
    A round the cluster cannot finish closes the cluster before its
    :class:`~repro.cluster.ClusterError` propagates, so the next round
    forks fresh workers.  Numpy backend only, like ``"remote"``.
    """

    _cluster = None
    _remote = None

    def map_reduce(self, world, partitions, params, reduce_mode):
        """Scan the partitions on the forked workers and reduce the partials."""
        if len(partitions) < 2:
            return super().map_reduce(world, partitions, params, reduce_mode)
        if self._cluster is None:
            self._cluster = LocalCluster(os.cpu_count() or 1)
            self._remote = self._cluster.executor()
        try:
            return self._remote.map_reduce(world, partitions, params, reduce_mode)
        except ClusterError:
            self.close()
            raise

    def close(self) -> None:
        """Kill the workers (idempotent)."""
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = self._remote = None


#: The executor classes :func:`open_executor` builds on this host, by
#: :data:`~repro.core.params.EXECUTORS` name (``"remote"`` is a
#: :class:`repro.cluster.ClusterExecutor` over the caller's worker list).
LOCAL_EXECUTORS = {
    "serial": SerialExecutor,
    "threads": ThreadsExecutor,
    "processes": ProcessesExecutor,
}


def open_executor(kind: str, cluster, opened: dict):
    """The executor of one :data:`~repro.core.params.EXECUTORS` kind.

    ``opened`` holds what this function built, keyed by kind (for
    ``"remote"``, by the :func:`~repro.cluster.parse_worker_spec` list of
    ``cluster``): a hit is returned, so its pool, forked workers or
    session stay warm, and whoever holds ``opened`` closes what is in
    it.  A live :class:`~repro.cluster.ClusterExecutor` passed as
    ``cluster`` is returned as-is, never recorded: its owner closes it.

    Raises:
        ValueError: for an unknown kind.
        ClusterError: when a worker cannot be reached.
    """
    if kind not in EXECUTORS:
        raise ValueError(f"unknown executor {kind!r}")
    key = kind
    if kind == "remote":
        if isinstance(cluster, ClusterExecutor):
            return cluster
        key = tuple(parse_worker_spec(cluster))
    if key not in opened:
        opened[key] = (
            ClusterExecutor(key) if kind == "remote" else LOCAL_EXECUTORS[kind]()
        )
    return opened[key]
