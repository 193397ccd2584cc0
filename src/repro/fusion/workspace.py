"""Round-persistent workspace for the iterative fusion loop.

What a fusion round needs from the *claims* — the provider structure,
the item segments, the index skeleton — lives on the dataset itself
(:attr:`repro.data.Dataset.columns`, one read-only table built once per
dataset); ``InvertedIndex.build`` gathers a round's index from it and
the fusion kernels scatter over it.  What is left to keep warm across
the rounds of a :func:`~repro.fusion.run_fusion` call (and across the
epochs of a streaming engine) is what :class:`FusionWorkspace` holds:

* ``shared_items`` — the ``l(S1, S2)`` counts, computed once with the
  backend-appropriate counter.
* the **executors** (:meth:`FusionWorkspace.executor`): one per kind —
  and, for ``"remote"``, per worker list — created on first use and
  reused across rounds.  Each owns its own lifetime state (see
  :mod:`repro.parallel.executors`): the thread pool; the process pool
  whose workers keep their shared-memory attachments warm, plus the one
  shared-memory block each round merely rewrites in place; the cluster
  session whose per-round broadcast shrinks to a ``world-update`` diff.

Lifecycle: the workspace is a context manager.  ``run_fusion`` creates
one internally when none is passed and closes it on the way out —
**including on detector exceptions** — while an explicitly passed
workspace stays open for the caller to reuse (and close) across several
fusion runs.  :meth:`close` is idempotent: every executor is closed —
pools shut down, the shared block unlinked, sessions ended — at most
once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.index import count_shared_items_for
from ..core.params import EXECUTORS, CopyParams
from ..data import Dataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.index import InvertedIndex
    from ..core.kernel import ColumnarEntries


class FusionWorkspace:
    """Frozen cross-round state of one dataset's fusion run.

    Args:
        dataset: the claims (static across rounds).
        params: model parameters; ``params.backend`` routes the
            shared-item counter (the counts themselves are identical
            either way).
    """

    def __init__(self, dataset: Dataset, params: CopyParams):
        self.dataset = dataset
        self.params = params
        self.closed = False
        self._shared_items = None
        self._executors: dict = {}

    # ------------------------------------------------------------------
    # Static structure caches
    # ------------------------------------------------------------------
    @property
    def shared_items(self):
        """``l(S1, S2)`` counts, computed once (claims never change)."""
        if self._shared_items is None:
            self._shared_items = count_shared_items_for(self.dataset, self.params)
        return self._shared_items

    def columnar_for_index(self, index: "InvertedIndex") -> "ColumnarEntries":
        """``index.columnar_entries()`` (a shim: a numpy-built index
        carries its columnar view, nothing is assembled here)."""
        return index.columnar_entries()

    # ------------------------------------------------------------------
    # Persistent executors
    # ------------------------------------------------------------------
    def executor(self, kind: str, cluster=None):
        """The persistent executor of one kind, created on first use.

        Every round of a fusion run (and every epoch of a streaming
        engine) gets the same object back until :meth:`close`, so the
        executor's pool, shared-memory block or cluster session stays
        warm across rounds.

        Args:
            kind: one of :data:`~repro.core.params.EXECUTORS`.
            cluster: for ``"remote"``: a live
                :class:`~repro.cluster.ClusterExecutor` (returned as-is;
                it stays the caller's to close), a worker list, or None
                for ``REPRO_CLUSTER_WORKERS``.  Dialed sessions are keyed
                by address list, so one workspace can serve runs against
                different clusters.

        Raises:
            RuntimeError: when the workspace is closed.
            ValueError: for an unknown kind.
            ClusterError: when a worker cannot be reached.
        """
        if self.closed:
            raise RuntimeError("the fusion workspace is closed")
        if kind not in EXECUTORS:
            raise ValueError(f"unknown executor {kind!r}")
        key = kind
        if kind == "remote":
            from ..cluster.executor import ClusterExecutor, parse_worker_spec

            if isinstance(cluster, ClusterExecutor):
                return cluster
            key = tuple(parse_worker_spec(cluster))
        if key not in self._executors:
            from ..parallel.executors import LOCAL_EXECUTORS

            self._executors[key] = (
                ClusterExecutor(key) if kind == "remote" else LOCAL_EXECUTORS[kind]()
            )
        return self._executors[key]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def rebind(self, dataset: Dataset) -> None:
        """Point the workspace at a new dataset, keeping the executors.

        The streaming service's claim ledger produces a fresh immutable
        :class:`Dataset` every epoch, which invalidates the shared-item
        counts (the claim table travels with the dataset) — but *not* the
        expensive runtime state: the persistent executors keep
        their warm workers, and the process executor reuses its
        shared-memory block as long as the columnar layout still fits
        (falling back to a fresh block on a layout change).  Rebinding to
        the same dataset object is a no-op.

        Raises:
            RuntimeError: when the workspace is closed.
        """
        if self.closed:
            raise RuntimeError("the fusion workspace is closed")
        if dataset is self.dataset:
            return
        self.dataset = dataset
        self._shared_items = None

    def close(self) -> None:
        """Close every executor the workspace created (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self) -> "FusionWorkspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
