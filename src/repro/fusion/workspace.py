"""Round-persistent workspace for the iterative fusion loop.

Every fusion round used to pay the full per-round setup bill: the
shared-item counts were recounted (or re-fetched from per-detector
caches), the index entries were re-columnarized with per-entry Python
loops, the parallel engine allocated a fresh shared-memory block and
spun up — then tore down — a fresh process pool.  None of that state
actually changes across rounds: the claims are static, so the provider
structure, the shared-item counts and the columnar claim layout are
round-invariant; only probabilities and accuracies move.

:class:`FusionWorkspace` freezes the invariant parts once and reuses
them for every round of a :func:`~repro.fusion.run_fusion` call:

* ``shared_items`` — the ``l(S1, S2)`` counts, computed once with the
  backend-appropriate counter.
* ``fusion_columns`` — the :class:`~repro.fusion.accu_kernel.FusionColumns`
  claim layout driving the vectorized ACCU/ACCUCOPY updates.
* an **entry skeleton** — the provider CSR of every multi-provider value
  in canonical (value-id) order.  :meth:`columnar_for_index` assembles a
  round's :class:`~repro.core.kernel.ColumnarEntries` from it with one
  vectorized gather in index processing order, replacing the per-entry
  Python loops of ``ColumnarEntries.from_index``.
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
    from .accu_kernel import FusionColumns


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
        self._fusion_columns: "FusionColumns" | None = None
        self._skeleton: "ColumnarEntries" | None = None
        self._value_row = None
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

    @property
    def fusion_columns(self) -> "FusionColumns":
        """Columnar claim layout for the vectorized ACCU/ACCUCOPY math."""
        if self._fusion_columns is None:
            from .accu_kernel import FusionColumns

            self._fusion_columns = FusionColumns.from_dataset(self.dataset)
        return self._fusion_columns

    def _entry_skeleton(self):
        """Provider CSR of every multi-provider value, value-id order.

        Returns ``(skeleton, value_row)``: a :class:`ColumnarEntries`
        whose per-entry probabilities/main flags are placeholders, plus
        the value-id -> skeleton-row map (-1 for single-provider values,
        which never enter an index).
        """
        if self._skeleton is None:
            import numpy as np

            from ..core.kernel import ColumnarEntries

            fc = self.fusion_columns
            rows = np.nonzero(np.diff(fc.prov_offsets) >= 2)[0]
            # View every value's provider CSR as a columnar block and let
            # the kernel's tested gather slice out the multi-provider rows.
            all_values = ColumnarEntries(
                probs=np.zeros(fc.n_values),
                main=np.ones(fc.n_values, dtype=bool),
                offsets=fc.prov_offsets,
                providers=fc.prov_sources,
            )
            self._skeleton = all_values.take(rows)
            value_row = np.full(fc.n_values, -1, dtype=np.int64)
            value_row[rows] = np.arange(len(rows), dtype=np.int64)
            self._value_row = value_row
        return self._skeleton, self._value_row

    def columnar_for_index(self, index: "InvertedIndex") -> "ColumnarEntries":
        """Assemble a round's columnar entries from the frozen skeleton.

        Produces exactly what ``ColumnarEntries.from_index(index)``
        would — entries in processing order, this round's probabilities,
        this round's tail split — but the provider gather is one
        vectorized ``take`` over the skeleton instead of per-entry
        Python loops; only the O(entries) probability/value-id reads
        remain at Python level.
        """
        import numpy as np

        skeleton, value_row = self._entry_skeleton()
        entries = index.entries
        n_entries = len(entries)
        values = np.fromiter(
            (entry.value_id for entry in entries), dtype=np.int64, count=n_entries
        )
        cols = skeleton.take(value_row[values])
        cols.probs = np.fromiter(
            (entry.probability for entry in entries),
            dtype=np.float64,
            count=n_entries,
        )
        cols.main = np.arange(n_entries, dtype=np.int64) < index.tail_start
        return cols

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
        :class:`Dataset` every epoch, which invalidates the dataset-derived
        caches (shared-item counts, fusion columns, entry skeleton) — but
        *not* the expensive runtime state: the persistent executors keep
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
        self._fusion_columns = None
        self._skeleton = None
        self._value_row = None

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
