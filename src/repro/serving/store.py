"""The persisted verdict store: versioned snapshots + delta publishing.

A :class:`VerdictStore` is a directory of immutable snapshot files plus
an atomically-updated ``CURRENT`` pointer::

    store/
      snap-00000001.rvs     # full snapshot
      snap-00000002.rvs     # delta over 1
      snap-00000003.rvs     # delta over 2
      CURRENT               # {"snapshot_id": 3}

Each snapshot is encoded by :mod:`repro.serving.codec` and carries two
row families in one schema, whatever detector (and whatever
``pair_layout`` — dense and sparse runs serialize identically) produced
them:

* **pair rows** — key ``(s1 << 32) | s2`` (``s1 < s2``, the int64 key
  codec of :mod:`repro.core.pairspace`; a pair's key does not depend on
  how many sources exist, so a chain extends across source growth), the
  accumulated
  scores ``C->``/``C<-``, the three-way posterior, the copying/early
  flags and the decision position from
  :class:`~repro.core.bound.PairBookkeeping` (-1 when untracked);
* **item rows** — the fused truth (value id), its probability and its
  provenance (the sources supporting the chosen value, CSR-packed).

A **full** snapshot carries the complete state (plus optional display
labels); a **delta** carries only upserted/removed rows over a ``base``
snapshot.  :class:`SnapshotPublisher` drives the lifecycle for the
fusion loop: the first round publishes full, and later rounds publish
deltas against the state the publisher last published.  **A delta's
pair row means: the detector reported the pair, or a stored bit or
position of it changed, or a stored score moved past the tolerance** —
when a result carries
:attr:`~repro.core.result.DetectionResult.changed_pairs` (the
INCREMENTAL bookkeeping's re-opened/rebuilt pairs) the rows it names
are the only published pairs eligible; otherwise ``copying``, ``early``
and the decision position are compared exactly and the five float
columns against the *published* value with :data:`SCORE_TOLERANCE`.  A
delta that would approach a rewrite anyway is written as a fresh full
snapshot instead.  **What a reader may assume:** with no report,
verdict bits and positions are exact and a served score is within the
tolerance of the exact score of the round that published the snapshot;
under a report the ``copying`` bit is exact and the other columns are
those of the round that last re-resolved the pair.

Pair rows are a :class:`~repro.core.result.PairColumns` table from the
kernel to the file and back into a reader; only at the codec boundary
(:func:`pair_arrays` / :func:`pairs_from_arrays`) do the two bool
columns fold into the ``pair_flags`` byte and the columns take their
``pair_`` names.

In memory every integer column is int64.  On disk each is stored at the
smallest of int8/int16/int32/int64 that holds it (:func:`narrowed`),
and :meth:`VerdictStore.load` widens it back to read-only int64
(:func:`widened`), so whatever reads a store sees the int64 schema.

Per-source "most copied" totals (``top_copiers``) are recomputed from
the merged pair state at every publish; they are O(pairs) to build and
tiny to store, so even deltas carry the complete ranking.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.pairspace import decode_pair_keys, encode_pairs, member_rows
from ..core.result import PAIR_COLUMNS, PAIR_FLOAT_COLUMNS, PairColumns
from ..data.columns import take_csr
from .codec import (
    FORMAT_VERSION,
    ServingError,
    encode_snapshot,
    read_snapshot_file,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.result import DetectionResult
    from ..data import Dataset

#: Bits of the ``pair_flags`` byte.
FLAG_COPYING = 1
FLAG_EARLY = 2

_SNAP_PATTERN = "snap-%08d.rvs"

#: The store's one tolerance, for both row families: an item row is
#: re-published when its truth flips or its probability moves by more
#: than this, a pair row when a stored bit or position changes or one of
#: its five float columns does — always against the *published* value,
#: so a served score never drifts further than this from the exact one.
SCORE_TOLERANCE = 1e-6

#: A delta touching more than this share of the published pair rows is
#: written as a full snapshot instead.  Why 0.6: a reader resolves a
#: delta by loading its whole base chain and merging, so a delta that
#: rewrites most rows is slower to read than the full snapshot it avoids
#: and barely smaller on disk; a cut a little past one half keeps chains
#: short and stops pre-convergence rounds, where nearly every score
#: moves, from masquerading as deltas.  Measured (docs/ARCHITECTURE.md
#: has the table): every ``stream_book`` epoch moves >= 99% of its rows
#: past 1e-6 and 10-70% past 1e-2, ``batch_book_par``'s last round 98%
#: past 1e-6 — those fulls are honest at any cut; only a converged round
#: (``batch_wide``'s last: 146 of 57k rows) is a delta.
FULL_REWRITE_FRACTION = 0.6

#: The zero-row pair table (the state before any publish).
_NO_PAIRS = PairColumns.from_decisions({})

#: The widths a signed integer column may be stored at, narrowest first.
_STORED_INTS = tuple(np.iinfo(t) for t in (np.int8, np.int16, np.int32, np.int64))


def narrowed(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The arrays as a snapshot stores them: each signed integer array at
    the smallest width that holds its minimum and maximum (an empty one
    at int8); every other array as it is."""
    out = dict(arrays)
    for name, array in arrays.items():
        if array.dtype.kind == "i":
            lo, hi = int(array.min(initial=0)), int(array.max(initial=0))
            width = next(t for t in _STORED_INTS if t.min <= lo and hi <= t.max)
            out[name] = array.astype(width.dtype, copy=False)
    return out


def widened(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The in-memory schema of stored arrays: every signed integer array
    narrower than 8 bytes as a read-only int64 copy, the rest as stored."""
    out = dict(arrays)
    for name, array in arrays.items():
        if array.dtype.kind == "i" and array.dtype.itemsize < 8:
            out[name] = array.astype(np.int64)
            out[name].flags.writeable = False
    return out


def pair_arrays(pairs: PairColumns) -> dict[str, np.ndarray]:
    """A pair table as the named arrays a snapshot stores (the write side).

    ``copying`` and ``early`` fold into the ``pair_flags`` byte; every
    other column goes in as it is under its ``pair_`` name.
    """
    flags = pairs.copying * FLAG_COPYING + pairs.early * FLAG_EARLY
    return {
        "pair_keys": pairs.keys,
        **{"pair_" + name: getattr(pairs, name) for name in PAIR_FLOAT_COLUMNS},
        "pair_flags": flags.astype(np.uint8),
        "pair_decision_pos": pairs.decision_pos,
    }


def pairs_from_arrays(arrays: Mapping[str, np.ndarray], origin) -> PairColumns:
    """The pair table of a decoded snapshot (the read side).

    Args:
        arrays: the snapshot's array dict.
        origin: the file they were read from, named in every error.

    Raises:
        ServingError: when a pair column is missing, the columns
            disagree in length, or ``pair_flags`` carries a bit this
            build does not know.
    """
    try:
        flags = arrays["pair_flags"]
        columns = [arrays["pair_keys"]]
        columns += [arrays["pair_" + name] for name in PAIR_FLOAT_COLUMNS]
        columns += [
            flags & FLAG_COPYING != 0,
            flags & FLAG_EARLY != 0,
            arrays["pair_decision_pos"],
        ]
    except KeyError as exc:
        raise ServingError(
            f"{origin}: snapshot is missing pair column {exc.args[0]!r}"
        ) from exc
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ServingError(
            f"{origin}: pair columns disagree in length ({sorted(lengths)})"
        )
    known = FLAG_COPYING | FLAG_EARLY
    alien = flags[(flags | known) != known]
    if len(alien):
        raise ServingError(
            f"{origin}: pair_flags carries unknown bits ({int(alien[0]) & ~known:#04x})"
        )
    return PairColumns(*columns)


@dataclass
class ItemRows:
    """Columnar fused truths + provenance, sorted by item id."""

    ids: np.ndarray  #: int64 item ids, sorted unique
    truth: np.ndarray  #: int64 chosen value id per item
    probability: np.ndarray  #: float64 probability of the chosen value
    prov_offsets: np.ndarray  #: int64 CSR offsets (len(ids) + 1)
    prov_sources: np.ndarray  #: int64 supporting source ids, CSR-packed

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls) -> "ItemRows":
        """A zero-row item table (the state before any publish)."""
        return cls(
            ids=np.empty(0, dtype=np.int64),
            truth=np.empty(0, dtype=np.int64),
            probability=np.empty(0),
            prov_offsets=np.zeros(1, dtype=np.int64),
            prov_sources=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_probabilities(
        cls, dataset: "Dataset", probabilities: Sequence[float]
    ) -> "ItemRows":
        """Fuse item rows out of a round's value probabilities.

        Each item's truth is :func:`repro.fusion.accu.choose_values`'
        pick (highest probability, ties to the lowest value id) and its
        provenance the chosen value's provider list — the sources whose
        claim supports the published truth — all gathered from the
        dataset's claim table.
        """
        from ..fusion.accu_kernel import choose_values_columnar

        table = dataset.columns
        probabilities = np.asarray(probabilities, dtype=np.float64)
        truth = choose_values_columnar(table, probabilities)
        offsets, sources = take_csr(table.prov_offsets, table.prov_sources, truth)
        return cls(
            ids=table.seg_items,
            truth=truth,
            probability=probabilities[truth],
            prov_offsets=offsets,
            prov_sources=sources,
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The named arrays a snapshot stores (``item_*``)."""
        return {
            "item_ids": self.ids,
            "item_truth": self.truth,
            "item_probability": self.probability,
            "item_prov_offsets": self.prov_offsets,
            "item_prov_sources": self.prov_sources,
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ItemRows":
        """Rebuild from a decoded snapshot's column dict.

        Raises:
            ServingError: when an item column is missing.
        """
        try:
            return cls(
                ids=arrays["item_ids"],
                truth=arrays["item_truth"],
                probability=arrays["item_probability"],
                prov_offsets=arrays["item_prov_offsets"],
                prov_sources=arrays["item_prov_sources"],
            )
        except KeyError as exc:
            raise ServingError(
                f"snapshot is missing item column {exc.args[0]!r}"
            ) from exc

    def take(self, rows: np.ndarray) -> "ItemRows":
        """A new :class:`ItemRows` holding the selected rows (re-packed CSR)."""
        offsets, flat = take_csr(self.prov_offsets, self.prov_sources, rows)
        return ItemRows(
            ids=self.ids[rows],
            truth=self.truth[rows],
            probability=self.probability[rows],
            prov_offsets=offsets,
            prov_sources=flat,
        )


def copier_totals(pairs: PairColumns, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-source copying mass, ranked — the ``top_copiers`` index.

    A pair's ``forward`` posterior is ``Pr(S1 -> S2)`` (S1 copies from
    S2) and accrues to S1; ``backward`` accrues to S2.  Returns
    ``(sources, scores)`` sorted by descending score, sources with zero
    mass dropped.
    """
    totals = np.zeros(n_sources)
    if len(pairs):
        s1, s2 = decode_pair_keys(pairs.keys)
        np.add.at(totals, s1, pairs.forward)
        np.add.at(totals, s2, pairs.backward)
    sources = np.nonzero(totals > 0.0)[0]
    order = np.argsort(-totals[sources], kind="stable")
    sources = sources[order].astype(np.int64)
    return sources, totals[sources]


def _upsert_rows(
    base_keys: np.ndarray, upsert_keys: np.ndarray, removed_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which rows survive an upsert of one sorted-key table over another.

    Returns:
        ``(kept_keys, take)``: the merged table's keys, ascending, and
        for each the row to read in ``concatenate([base, upserts])`` —
        the upsert's where both tables hold the key.
    """
    keys = np.concatenate([base_keys, upsert_keys])
    order = np.argsort(keys, kind="stable")
    uniq, first, counts = np.unique(keys[order], return_index=True, return_counts=True)
    # Stable sort keeps base rows before upsert rows within one key, so
    # the *last* row of each group is the newest.
    take = order[first + counts - 1]
    keep = ~np.isin(uniq, removed_keys)
    return uniq[keep], take[keep]


def merge_pair_rows(
    base: PairColumns, upserts: PairColumns, removed_keys: np.ndarray
) -> PairColumns:
    """Apply a delta's pair upserts/removals over a base row set."""
    keys, take = _upsert_rows(base.keys, upserts.keys, removed_keys)
    return PairColumns(
        keys,
        *(
            np.concatenate([getattr(base, name), getattr(upserts, name)])[take]
            for name in PAIR_COLUMNS
        ),
    )


def pair_delta(
    published: PairColumns,
    pairs: PairColumns,
    changed_pairs: "set[tuple[int, int]] | None",
) -> tuple[np.ndarray, np.ndarray]:
    """What a round's table changes in the published pair state.

    A row of ``pairs`` is upserted when its pair is not published yet;
    a published one when ``changed_pairs`` (the detector's report) names
    it — a pass-1 re-confirmation's scores are estimates and must not
    replace the exact ones — or, with no report, when ``copying``,
    ``early`` or ``decision_pos`` differs or a float column sits more
    than :data:`SCORE_TOLERANCE` from the published value.  When both
    tables hold the same pairs (every round of a static world) the
    columns are compared in place, no lookup and no gather.

    Returns:
        ``(upsert, removed_keys)``: a row mask over ``pairs`` and the
        published keys ``pairs`` no longer holds.
    """
    aligned = np.array_equal(published.keys, pairs.keys)
    if aligned:
        known, removed_keys = np.ones(len(pairs), dtype=bool), pairs.keys[:0]
    else:
        rows, known = member_rows(published.keys, pairs.keys)
        removed_keys = published.keys[~member_rows(pairs.keys, published.keys)[1]]
    if changed_pairs is not None:
        return ~known | np.isin(pairs.keys, encode_pairs(changed_pairs)), removed_keys
    if not aligned:
        pairs, published = pairs.take(known), published.take(rows[known])
    moved = np.zeros(len(pairs), dtype=bool)
    for name in PAIR_COLUMNS:
        new, old = getattr(pairs, name), getattr(published, name)
        if name in PAIR_FLOAT_COLUMNS:
            moved |= np.abs(new - old) > SCORE_TOLERANCE
        else:
            moved |= new != old
    upsert = ~known
    upsert[known] = moved
    return upsert, removed_keys


def merge_item_rows(
    base: ItemRows, upserts: ItemRows, removed_ids: np.ndarray
) -> ItemRows:
    """Apply a delta's item upserts/removals over a base row set."""
    _, take = _upsert_rows(base.ids, upserts.ids, removed_ids)
    combined = ItemRows(
        ids=np.concatenate([base.ids, upserts.ids]),
        truth=np.concatenate([base.truth, upserts.truth]),
        probability=np.concatenate([base.probability, upserts.probability]),
        prov_offsets=np.concatenate(
            [
                base.prov_offsets,
                base.prov_offsets[-1] + upserts.prov_offsets[1:],
            ]
        ),
        prov_sources=np.concatenate([base.prov_sources, upserts.prov_sources]),
    )
    return combined.take(take)


def _replace_durably(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``'s ``.tmp`` name, fsync it, rename it
    over ``path``, then fsync the directory that holds the rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class VerdictStore:
    """Directory manager for versioned verdict snapshots.

    Snapshot files are immutable and published atomically and durably
    (written to a temp name and fsynced, then renamed, then the
    directory fsynced); the ``CURRENT`` pointer is replaced the same
    way, so a concurrently-reading
    :class:`~repro.serving.reader.VerdictReader` always sees either the
    old or the new version, never a torn one.
    """

    def __init__(self, root: Path | str, create: bool = True):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ServingError(f"{self.root}: verdict store directory not found")
        #: the highest id written or found; None until the first publish
        self._last_id: int | None = None

    # ------------------------------------------------------------------
    # Pointers and paths
    # ------------------------------------------------------------------
    def snapshot_path(self, snapshot_id: int) -> Path:
        """The on-disk path of a snapshot id (``snap-NNNNNNNN.rvs``)."""
        return self.root / (_SNAP_PATTERN % snapshot_id)

    def current_id(self) -> int | None:
        """The published snapshot id, or None for an empty store."""
        path = self.root / "CURRENT"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return int(data["snapshot_id"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ServingError(f"{path}: corrupted CURRENT pointer ({exc})") from exc

    def snapshot_ids(self) -> list[int]:
        """All snapshot ids present in the directory, ascending."""
        ids = []
        for path in self.root.glob("snap-*.rvs"):
            try:
                ids.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                continue
        return sorted(ids)

    def _publish(self, meta: dict, arrays: Mapping[str, np.ndarray]) -> int:
        """Encode the snapshot at its stored widths (:func:`narrowed`),
        make it durable, then point ``CURRENT`` at it.

        Each file is fsynced before its rename and the directory after
        it, so a crash leaves ``CURRENT`` naming a snapshot that is whole
        on disk: a catalogued snapshot is durable, or it is not in the
        catalogue.
        """
        snapshot_id = meta["snapshot_id"]
        data = encode_snapshot(meta, narrowed(arrays))
        _replace_durably(self.snapshot_path(snapshot_id), data)
        pointer = {"snapshot_id": snapshot_id, "format_version": FORMAT_VERSION}
        _replace_durably(
            self.root / "CURRENT", (json.dumps(pointer) + "\n").encode("utf-8")
        )
        return snapshot_id

    def _next_id(self) -> int:
        """One past the highest snapshot id: the directory is listed once
        per store object, at its first publish (so ids rise above all an
        earlier writer left, an orphan beyond ``CURRENT`` included), then
        counted — a store has one writer at a time."""
        if self._last_id is None:
            self._last_id = max(self.snapshot_ids(), default=0)
        self._last_id += 1
        return self._last_id

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_full(
        self,
        pairs: PairColumns,
        items: ItemRows,
        n_sources: int,
        method: str = "unknown",
        round_no: int | None = None,
        labels: Mapping[str, Sequence[str]] | None = None,
    ) -> int:
        """Publish a full snapshot; returns its id."""
        snapshot_id = self._next_id()
        copier_sources, copier_scores = copier_totals(pairs, n_sources)
        meta = {
            "snapshot_id": snapshot_id,
            "kind": "full",
            "base_id": None,
            "n_sources": int(n_sources),
            "method": method,
            "round": round_no,
            "n_pairs": len(pairs),
            "n_items": len(items),
        }
        if labels is not None:
            meta["labels"] = {k: list(v) for k, v in labels.items()}
        arrays = {
            **pair_arrays(pairs),
            **items.to_arrays(),
            "copier_sources": copier_sources,
            "copier_scores": copier_scores,
        }
        return self._publish(meta, arrays)

    def write_delta(
        self,
        base_id: int,
        pair_upserts: PairColumns,
        removed_pair_keys: np.ndarray,
        item_upserts: ItemRows,
        removed_item_ids: np.ndarray,
        merged_pairs: PairColumns,
        n_sources: int,
        method: str = "unknown",
        round_no: int | None = None,
        labels: Mapping[str, Sequence[str]] | None = None,
    ) -> int:
        """Publish a delta over ``base_id``; returns the new snapshot id.

        ``merged_pairs`` is the post-delta pair state, used only to
        recompute the (always-complete) copier ranking.  ``labels``
        replaces the chain's display-label tables when given — a
        streaming publisher passes the full (grown) tables whenever new
        items or values were interned since the last snapshot, so
        readers never hold a value id with no label.
        """
        snapshot_id = self._next_id()
        copier_sources, copier_scores = copier_totals(merged_pairs, n_sources)
        meta = {
            "snapshot_id": snapshot_id,
            "kind": "delta",
            "base_id": int(base_id),
            "n_sources": int(n_sources),
            "method": method,
            "round": round_no,
            "n_pairs": len(pair_upserts),
            "n_items": len(item_upserts),
            "n_removed_pairs": int(len(removed_pair_keys)),
            "n_removed_items": int(len(removed_item_ids)),
        }
        if labels is not None:
            meta["labels"] = {k: list(v) for k, v in labels.items()}
        arrays = {
            **pair_arrays(pair_upserts),
            **item_upserts.to_arrays(),
            "removed_pair_keys": np.asarray(removed_pair_keys, dtype=np.int64),
            "removed_item_ids": np.asarray(removed_item_ids, dtype=np.int64),
            "copier_sources": copier_sources,
            "copier_scores": copier_scores,
        }
        return self._publish(meta, arrays)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, snapshot_id: int) -> tuple[dict, dict]:
        """Decode one snapshot file (meta, arrays), its integer arrays
        widened back to int64 (:func:`widened`).

        Raises:
            ServingError: missing, truncated, corrupted or
                other-versioned snapshot.
        """
        path = self.snapshot_path(snapshot_id)
        if not path.is_file():
            raise ServingError(f"{path}: snapshot {snapshot_id} not found")
        meta, arrays = read_snapshot_file(path)
        return meta, widened(arrays)

    def load_chain(self, snapshot_id: int) -> list[tuple[dict, dict]]:
        """The snapshot plus its delta ancestry, base-full first.

        Raises:
            ServingError: on a missing base or a malformed chain.
        """
        chain: list[tuple[dict, dict]] = []
        current: int | None = snapshot_id
        seen: set[int] = set()
        while current is not None:
            if current in seen:
                raise ServingError(
                    f"snapshot {snapshot_id}: base chain contains a cycle "
                    f"at {current}"
                )
            seen.add(current)
            meta, arrays = self.load(current)
            chain.append((meta, arrays))
            if meta.get("kind") == "full":
                return list(reversed(chain))
            base = meta.get("base_id")
            if base is None:
                raise ServingError(
                    f"snapshot {current}: delta snapshot without a base_id"
                )
            current = int(base)
        raise ServingError(  # pragma: no cover - unreachable
            f"snapshot {snapshot_id}: broken base chain"
        )


class SnapshotPublisher:
    """Publishes one store snapshot per fusion round (full, then deltas).

    The publisher keeps the state it last published — the merged pair
    table and the merged item rows — and each round upserts what differs
    from it: pair rows by :func:`pair_delta` (the contract in the module
    docstring), item rows whose chosen value or supporters changed or
    whose probability sits more than :data:`SCORE_TOLERANCE` from the
    published one.

    When the pair delta would touch more than
    :data:`FULL_REWRITE_FRACTION` of the published rows, a fresh full
    snapshot is written instead — with no report, the round's table as
    it is: no gather, no merge of rows about to be overwritten.
    """

    def __init__(self, store: VerdictStore | Path | str, dataset: "Dataset"):
        self.store = store if isinstance(store, VerdictStore) else VerdictStore(store)
        self.dataset = dataset
        self.last_snapshot_id: int | None = None
        self.snapshot_ids: list[int] = []
        self._prev_pairs = _NO_PAIRS
        self._prev_items: ItemRows = ItemRows.empty()
        self._published_label_sizes: tuple[int, int, int] | None = None

    def _labels(self) -> dict[str, Sequence[str]]:
        return {
            "sources": self.dataset.source_names,
            "items": self.dataset.item_names,
            "values": self.dataset.value_label,
        }

    def _label_sizes(self) -> tuple[int, int, int]:
        dataset = self.dataset
        return (dataset.n_sources, dataset.n_items, dataset.n_values)

    def _delta_labels(self) -> dict[str, Sequence[str]] | None:
        """Full label tables when they grew since the last publish.

        A streaming epoch can intern new sources, items and values, so a
        delta must re-ship the label tables whenever their sizes moved;
        otherwise a reader resolving a freshly-interned value id against
        the stale tables would fall off the end.  Unchanged sizes ship no
        labels: interning is append-only, so same size means same tables.
        """
        if self._published_label_sizes == self._label_sizes():
            return None
        return self._labels()

    def rebind(self, dataset: "Dataset") -> None:
        """Point the publisher at a grown snapshot of the same world.

        Streaming epochs hand the publisher a fresh immutable
        :class:`~repro.data.Dataset` each time the claim ledger moves.
        Growth in sources, items or values is fine: interning is
        append-only, ids — and therefore pair keys — are stable, and the
        next delta re-ships the label tables via :meth:`_delta_labels`.
        """
        self.dataset = dataset

    def publish_round(
        self,
        round_no: int,
        detection: "DetectionResult | None",
        probabilities: Sequence[float],
    ) -> int:
        """Publish this round's verdicts + truths; returns the snapshot id."""
        dataset = self.dataset
        n_sources = dataset.n_sources
        items = ItemRows.from_probabilities(dataset, probabilities)
        if detection is not None:
            method, pairs = detection.method, detection.columns()
            reported = detection.changed_pairs
        else:  # copy-oblivious fusion: the published pairs, none reported
            method, pairs, reported = "none", self._prev_pairs, set()
        if self.last_snapshot_id is None:  # all new: written as it is
            rewrite, merged_pairs = True, pairs
        else:
            upsert, removed_keys = pair_delta(self._prev_pairs, pairs, reported)
            touched = np.count_nonzero(upsert) + len(removed_keys)
            rewrite = touched > FULL_REWRITE_FRACTION * max(len(self._prev_pairs), 1)
            if rewrite and reported is None:
                merged_pairs = pairs  # the round's own table is the new state
            else:
                pair_upserts = pairs.take(upsert)
                merged_pairs = merge_pair_rows(
                    self._prev_pairs, pair_upserts, removed_keys
                )
        if rewrite:
            snapshot_id = self.store.write_full(
                merged_pairs,
                items,
                n_sources,
                method=method,
                round_no=round_no,
                labels=self._labels(),
            )
        else:
            item_upserts, removed_item_ids = self._item_delta(items)
            snapshot_id = self.store.write_delta(
                self.last_snapshot_id,
                pair_upserts,
                removed_keys,
                item_upserts,
                removed_item_ids,
                merged_pairs,
                n_sources,
                method=method,
                round_no=round_no,
                labels=self._delta_labels(),
            )
            # What a reader now serves, the next delta's baseline.
            items = merge_item_rows(self._prev_items, item_upserts, removed_item_ids)
        self.last_snapshot_id = snapshot_id
        self.snapshot_ids.append(snapshot_id)
        self._prev_pairs = merged_pairs
        self._prev_items = items
        self._published_label_sizes = self._label_sizes()
        return snapshot_id

    def _item_delta(self, items: ItemRows) -> tuple[ItemRows, np.ndarray]:
        """Items whose truth, supporters or probability materially moved
        against the published rows."""
        prev = self._prev_items
        rows, known = member_rows(prev.ids, items.ids)
        here = np.nonzero(known)[0]
        at = rows[here]
        same = known.copy()
        moved = np.abs(prev.probability[at] - items.probability[here])
        same[here] = (
            (prev.truth[at] == items.truth[here])
            & (moved <= SCORE_TOLERANCE)
            & _same_supporters(prev, at, items, here)
        )
        removed_ids = prev.ids[~np.isin(prev.ids, items.ids)]
        return items.take(np.nonzero(~same)[0]), removed_ids


def _same_supporters(
    prev: ItemRows, at: np.ndarray, items: ItemRows, here: np.ndarray
) -> np.ndarray:
    """Whether row ``at[i]`` of ``prev`` and row ``here[i]`` of ``items``
    list the same supporters, in the same order, for every ``i``."""
    size = np.diff(prev.prov_offsets)[at]
    same = size == np.diff(items.prov_offsets)[here]
    rows = np.nonzero(same)[0]
    _, old = take_csr(prev.prov_offsets, prev.prov_sources, at[rows])
    _, new = take_csr(items.prov_offsets, items.prov_sources, here[rows])
    same[np.repeat(rows, size[rows])[old != new]] = False
    return same
