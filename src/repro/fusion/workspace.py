"""Round-persistent workspace for the iterative fusion loop.

What a fusion round needs from the *claims* — the provider structure,
the item segments, the index skeleton — lives on the dataset itself
(:attr:`repro.data.Dataset.columns`, one read-only table built once per
dataset); ``InvertedIndex.build`` gathers a round's index from it and
the fusion kernels scatter over it.  What is left to keep warm across
the rounds of a :func:`~repro.fusion.run_fusion` call is what
:class:`FusionWorkspace` holds:

* ``shared_items`` — the ``l(S1, S2)`` counts, computed once with the
  backend-appropriate counter.
* the **executors** (:meth:`FusionWorkspace.executor`): one per kind —
  and, for ``"remote"``, per worker list — built on first use by
  :func:`repro.parallel.executors.open_executor` and reused across
  rounds.  Each owns its own lifetime state: the thread pool; the
  forked workers of ``"processes"`` and the cluster session of
  ``"remote"``, whose per-round broadcast shrinks to a ``world-update``
  diff.

Lifecycle: the workspace is a context manager.  ``run_fusion`` creates
one internally when none is passed and closes it on the way out —
**including on detector exceptions** — while an explicitly passed
workspace stays open for the caller to reuse (and close) across several
fusion runs.  :meth:`close` is idempotent: every executor is closed —
pools shut down, forked workers killed, sessions ended — at most
once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.index import count_shared_items_for
from ..core.params import CopyParams
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
        """The persistent executor of one kind:
        :func:`~repro.parallel.executors.open_executor` over this
        workspace's executors, so every round of a fusion run gets the
        same object back until :meth:`close` and its pool, forked
        workers or cluster session stay warm.  Dialed sessions are keyed
        by worker list; a caller's live ``cluster`` executor is returned
        as-is and stays the caller's to close.

        Raises:
            RuntimeError: when the workspace is closed.
            ValueError: for an unknown kind.
            ClusterError: when a worker cannot be reached.
        """
        if self.closed:
            raise RuntimeError("the fusion workspace is closed")
        from ..parallel.executors import open_executor

        return open_executor(kind, cluster, self._executors)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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
