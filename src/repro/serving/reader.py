"""The LRU-cached read API over a verdict store.

:class:`VerdictReader` answers the three read-heavy questions the
serving tier exists for — ``get_verdict(s1, s2)``, ``get_truth(item)``
and ``top_copiers(k)`` — from a loaded snapshot, without touching the
detection pipeline.

**Consistency under concurrent refresh.**  All state (the merged
arrays, the label tables *and the LRU caches*) lives on an immutable
:class:`_SnapshotView`.  ``refresh()`` builds a complete new view and
then swaps one attribute reference — an atomic operation under the GIL
— so a reader thread either sees the old view or the new one, never a
mix, and never a cache entry from a different version.  Every reply
carries the ``snapshot_id`` it was served from, which is how the serve
benchmark verifies correctness while a writer republishes concurrently.

**Speed.**  The hot lookups are wrapped in :func:`functools.lru_cache`
(the C implementation), so a repeated query costs one dict probe.
Caches hold :data:`CACHE_SIZE` entries per view, per lookup kind,
and every view starts cold, so misses are the common case: a fresh
reader misses 56% of the benchmark's skewed queries on the 57k pairs of
``batch_wide``.  A miss is one binary search with the key column's own
``searchsorted`` method (the :func:`numpy.searchsorted` function pays
``__array_function__`` dispatch, twice the search) and then only Python
objects: the snapshot keeps :class:`memoryview` s of its columns,
whose items are plain ``bool`` / ``int`` / ``float``, and the reply is
built positionally with ``tuple.__new__``.  A file stores a pair's
source ids and scores; :meth:`~repro.serving.store.VerdictStore.load`
derives its key and three posteriors (Eq. 2, bit-equal to the
publishing round's) and widens the integer columns stored narrower than
int64, so of a full snapshot only the two scores stay zero-copy views
of the bytes read.  No NumPy scalar is
made, so a verdict miss costs under half of what it did through NumPy
scalars and a keyword constructor, and a truth's supporters are one
slice, not one ``int()`` per source (docs/ARCHITECTURE.md, "What a read
costs", has the per-call breakdown).
"""

from __future__ import annotations

import functools
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from ..core.pairspace import pair_key
from .codec import ServingError
from ..core.result import PairColumns
from .store import ItemRows, VerdictStore, pairs_from_arrays, upsert

#: LRU entries per snapshot view, per lookup kind (verdicts, truths).
CACHE_SIZE = 65536


class Verdict(NamedTuple):
    """One served pair verdict (sources normalized to ``source_1 < source_2``)."""

    source_1: int
    source_2: int
    copying: bool
    early: bool
    independent: float  #: Pr(no copying | Phi)
    forward: float  #: Pr(source_1 copies from source_2 | Phi)
    backward: float  #: Pr(source_2 copies from source_1 | Phi)
    c_fwd: float
    c_bwd: float
    decision_pos: int  #: bookkeeping decision position, -1 if untracked
    snapshot_id: int  #: the snapshot version this reply was served from


class Truth(NamedTuple):
    """One served fused truth with provenance."""

    item: int
    item_name: str | None
    value: int
    value_label: str | None
    probability: float
    supporters: tuple[int, ...]  #: sources whose claim supports the truth
    snapshot_id: int


class TopCopier(NamedTuple):
    """One row of the most-copied ranking."""

    source: int
    source_name: str | None
    score: float  #: summed directed copy-posterior mass over its pairs


#: The pair columns a :class:`Verdict` carries, in its field order.
_VERDICT_COLUMNS = Verdict._fields[2:-1]


class _Snapshot:
    """One immutable loaded snapshot version: merged arrays and labels."""

    def __init__(
        self,
        snapshot_id: int,
        meta: dict,
        pairs: PairColumns,
        items: ItemRows,
        copier_sources: np.ndarray,
        copier_scores: np.ndarray,
        labels: Mapping[str, list],
        value_labels: dict[int, str],
    ):
        self.snapshot_id = snapshot_id
        self.meta = meta
        self.n_sources = int(meta["n_sources"])
        self.pairs = pairs
        self.items = items
        self.copier_sources = copier_sources
        self.copier_scores = copier_scores
        self.labels = MappingProxyType({k: tuple(v) for k, v in labels.items()})
        self._value_labels = value_labels
        # Memoryviews of the columns a read touches: indexing one
        # yields a plain bool / int / float, never a NumPy scalar.
        self._pair_keys = memoryview(pairs.keys)
        self._pair_rows = tuple(
            memoryview(getattr(pairs, name)) for name in _VERDICT_COLUMNS
        )
        self._item_truth = memoryview(items.truth)
        self._item_probability = memoryview(items.probability)
        self._prov_offsets = memoryview(items.prov_offsets)
        self._prov_sources = memoryview(items.prov_sources)
        self._item_index = dict(zip(items.keys.tolist(), range(len(items))))
        item_names = self.labels.get("items")
        self._item_by_name = (
            {name: i for i, name in enumerate(item_names)} if item_names else None
        )

    @classmethod
    def load(cls, store: VerdictStore, snapshot_id: int) -> "_Snapshot":
        chain = store.load_chain(snapshot_id)
        base_meta, base_arrays = chain[0]
        pairs = pairs_from_arrays(base_arrays)
        items = ItemRows.from_arrays(base_arrays)
        none = np.empty(0, dtype=np.int64)
        for meta, arrays in chain[1:]:
            removed = arrays.get("removed_pair_keys", none)
            pairs = upsert(pairs, pairs_from_arrays(arrays), removed)
            removed = arrays.get("removed_item_ids", none)
            items = upsert(items, ItemRows.from_arrays(arrays), removed)
        # Value ids are append-only, so a label once stored never changes.
        labels, value_labels = {}, {}
        for meta, arrays in chain:
            stored = dict(meta.get("labels") or {})
            truths = stored.pop("truths", ())
            value_labels.update(zip(arrays["item_truth"].tolist(), truths))
            labels.update(stored)
        tip_meta, tip_arrays = chain[-1]
        try:
            copier_sources = tip_arrays["copier_sources"]
            copier_scores = tip_arrays["copier_scores"]
        except KeyError as exc:
            raise ServingError(
                f"snapshot {snapshot_id} is missing the copier ranking "
                f"({exc.args[0]!r})"
            ) from exc
        return cls(
            snapshot_id=snapshot_id,
            meta=tip_meta,
            pairs=pairs,
            items=items,
            copier_sources=copier_sources,
            copier_scores=copier_scores,
            labels=labels,
            value_labels=value_labels,
        )

    def _check_source(self, source: int) -> None:
        if not 0 <= source < self.n_sources:
            raise ValueError(
                f"source {source} out of range for a {self.n_sources}-source store"
            )

    def _verdict(self, s1: int, s2: int) -> Verdict | None:
        self._check_source(s1)
        self._check_source(s2)
        if s1 == s2:
            raise ValueError("a pair needs two distinct sources")
        a, b = (s1, s2) if s1 < s2 else (s2, s1)
        key = pair_key(a, b)
        pos = self.pairs.keys.searchsorted(key)
        keys = self._pair_keys
        if pos == len(keys) or keys[pos] != key:
            return None  # never observed: independent by construction
        copying, early, independent, forward, backward, c_fwd, c_bwd, decision_pos = (
            self._pair_rows
        )
        # Positional, in field order: the keyword constructor costs 4x more.
        return tuple.__new__(Verdict, (
            a, b, copying[pos], early[pos], independent[pos], forward[pos],
            backward[pos], c_fwd[pos], c_bwd[pos], decision_pos[pos], self.snapshot_id,
        ))

    def _truth(self, item: int | str) -> Truth | None:
        if isinstance(item, str):
            if self._item_by_name is None:
                raise ServingError(
                    "store was published without labels; query items by id"
                )
            item_id = self._item_by_name.get(item)
            if item_id is None:
                return None
        else:
            item_id = int(item)
        row = self._item_index.get(item_id)
        if row is None:
            return None
        value = self._item_truth[row]
        offsets = self._prov_offsets
        item_names = self.labels.get("items")
        return tuple.__new__(Truth, (
            item_id,
            item_names[item_id] if item_names else None,
            value,
            self._value_labels.get(value),
            self._item_probability[row],
            tuple(self._prov_sources[offsets[row] : offsets[row + 1]].tolist()),
            self.snapshot_id,
        ))

    def top_copiers(self, k: int) -> list[TopCopier]:
        if k < 0:
            raise ValueError("k must be non-negative")
        names = self.labels.get("sources")
        sources = self.copier_sources[:k].tolist()
        scores = self.copier_scores[:k].tolist()
        return [
            TopCopier(source, names[source] if names else None, score)
            for source, score in zip(sources, scores)
        ]


class _SnapshotView:
    """A loaded snapshot plus its LRU caches, published as one reference.

    The caches wrap lookups bound to the snapshot, which holds nothing
    of the view's: the view is in no reference cycle, so the one
    ``refresh()`` replaces (or a dropped reader's) is freed by refcount
    the moment its last reply returns, not at a later gen-2 collection.
    A swapped-in view starts cold but can never serve a stale entry from
    an older version.
    """

    def __init__(self, snapshot: _Snapshot):
        self.snapshot = snapshot
        self.get_verdict = functools.lru_cache(maxsize=CACHE_SIZE)(snapshot._verdict)
        self.get_truth = functools.lru_cache(maxsize=CACHE_SIZE)(snapshot._truth)


class VerdictReader:
    """Read API over a :class:`~repro.serving.store.VerdictStore`.

    Opens the store's ``CURRENT`` snapshot; ``refresh()`` picks up a
    newly published version atomically (see the module docstring for the
    consistency argument).  Safe to share across reader threads while a
    single writer republishes.
    """

    def __init__(self, store: VerdictStore | Path | str):
        self._store = (
            store if isinstance(store, VerdictStore) else VerdictStore(store, create=False)
        )
        self._view: _SnapshotView | None = None
        self.refresh()

    @property
    def snapshot_id(self) -> int:
        """The snapshot version currently being served."""
        return self._view.snapshot.snapshot_id

    @property
    def n_sources(self) -> int:
        """Source count of the served snapshot."""
        return self._view.snapshot.n_sources

    @property
    def labels(self) -> Mapping[str, tuple[str, ...]]:
        """The ``sources`` / ``items`` name tables published with the
        store, read-only (may be empty); a truth carries its value's label."""
        return self._view.snapshot.labels

    def refresh(self) -> bool:
        """Re-read ``CURRENT`` and swap in the new version if it moved.

        Returns True when a new snapshot was loaded.  Readers running
        concurrently keep being served from the old view until the swap,
        and from the new view after — never a mix.

        Raises:
            ServingError: the store is empty or the snapshot chain fails
                to load.
        """
        current = self._store.current_id()
        if current is None:
            raise ServingError(
                f"{self._store.root}: store has no published snapshot"
            )
        view = self._view
        if view is not None and view.snapshot.snapshot_id == current:
            return False
        snapshot = _Snapshot.load(self._store, current)
        self._view = _SnapshotView(snapshot)  # atomic publication
        return True

    # ------------------------------------------------------------------
    # The read API proper: delegate to the (immutable) current view.
    # ------------------------------------------------------------------
    def get_verdict(self, s1: int, s2: int) -> Verdict | None:
        """Served verdict for a pair (any order); None if never observed."""
        return self._view.get_verdict(s1, s2)

    def get_truth(self, item: int | str) -> Truth | None:
        """Served fused truth for an item id (or name, when labels exist)."""
        return self._view.get_truth(item)

    def top_copiers(self, k: int = 10) -> list[TopCopier]:
        """The k sources with the most directed copying mass, descending."""
        return self._view.snapshot.top_copiers(k)

    def cache_info(self) -> dict[str, object]:
        """Diagnostics: current snapshot + per-view LRU statistics."""
        view = self._view
        return {
            "snapshot_id": view.snapshot.snapshot_id,
            "verdict_cache": view.get_verdict.cache_info(),
            "truth_cache": view.get_truth.cache_info(),
            "n_pairs": len(view.snapshot.pairs),
            "n_items": len(view.snapshot.items),
        }
