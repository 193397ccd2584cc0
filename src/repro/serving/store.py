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
deltas sized by what actually changed —
:attr:`~repro.core.result.DetectionResult.changed_pairs` (the
INCREMENTAL bookkeeping's re-opened/rebuilt pairs) when the detector
reports it, a field-exact diff otherwise — falling back to a fresh full
snapshot when the delta would approach a rewrite anyway.

Per-source "most copied" totals (``top_copiers``) are recomputed from
the merged pair state at every publish; they are O(pairs) to build and
tiny to store, so even deltas carry the complete ranking.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.pairspace import decode_pair_keys, encode_pairs, member_rows
from ..core.result import PAIR_FLOAT_COLUMNS, PairColumns
from .codec import (
    FORMAT_VERSION,
    ServingError,
    encode_snapshot,
    read_snapshot_file,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.result import DetectionResult
    from ..data import Dataset

#: Decision positions as a publisher takes them: ``pair -> position``,
#: or ``(sorted int64 pair keys, positions)`` aligned arrays.
DecisionPositions = Mapping[tuple[int, int], int] | tuple[np.ndarray, np.ndarray]

#: Pair-row flag bits.
FLAG_COPYING = 1
FLAG_EARLY = 2

_SNAP_PATTERN = "snap-%08d.rvs"

#: An item row is re-published when its truth flips or its probability
#: moves by more than this (the float noise of a re-converged round is
#: orders of magnitude smaller).
ITEM_TOLERANCE = 1e-6

#: A delta touching more than this share of the published pair rows is
#: written as a full snapshot instead.  Why 0.6: a reader resolves a
#: delta by loading its whole base chain and merging, so a delta that
#: rewrites most rows is slower to read than the full snapshot it avoids
#: and barely smaller on disk; a cut a little past one half keeps chains
#: short and stops early (pre-convergence) rounds, where nearly every
#: score moves, from masquerading as deltas.  It has never been tuned
#: against a workload — ROADMAP's O(delta) streaming item asks why
#: deltas lose on ``stream_book`` before anyone moves it.
FULL_REWRITE_FRACTION = 0.6


@dataclass
class PairRows:
    """Columnar pair verdicts, sorted by key (the storage layout)."""

    keys: np.ndarray  #: int64 pair keys (``core.pairspace``), sorted unique
    c_fwd: np.ndarray
    c_bwd: np.ndarray
    independent: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    flags: np.ndarray  #: uint8 bitmask of FLAG_COPYING / FLAG_EARLY
    decision_pos: np.ndarray  #: int64 bookkeeping decision position, -1 unknown

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def empty(cls) -> "PairRows":
        """A zero-row pair table (the state before any publish)."""
        return cls(
            keys=np.empty(0, dtype=np.int64),
            c_fwd=np.empty(0),
            c_bwd=np.empty(0),
            independent=np.empty(0),
            forward=np.empty(0),
            backward=np.empty(0),
            flags=np.empty(0, dtype=np.uint8),
            decision_pos=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_columns(
        cls,
        columns: PairColumns,
        decision_positions: "DecisionPositions | None" = None,
    ) -> "PairRows":
        """The storage rows of a verdict column table — field copies.

        The columns are already sorted by key, so nothing is walked: the
        two bool columns fold into ``flags`` and ``decision_pos`` is -1
        unless the detector's bookkeeping supplies positions — as
        ``(sorted keys, positions)`` arrays (one ``searchsorted``
        gather) or as a ``pair -> position``
        mapping (the python backend's form).
        """
        if isinstance(decision_positions, Mapping):
            positions = np.fromiter(
                (decision_positions.get(pair, -1) for pair in columns.pairs()),
                dtype=np.int64,
                count=len(columns),
            )
        else:
            positions = np.full(len(columns), -1, dtype=np.int64)
            if decision_positions is not None:
                keys, booked = decision_positions
                rows, known = member_rows(keys, columns.keys)
                positions[known] = booked[rows[known]]
        return cls(
            keys=columns.keys,
            flags=(columns.copying * FLAG_COPYING + columns.early * FLAG_EARLY).astype(
                np.uint8
            ),
            decision_pos=positions,
            **{name: getattr(columns, name) for name in PAIR_FLOAT_COLUMNS},
        )

    @classmethod
    def from_decisions(
        cls,
        decisions: Mapping[tuple[int, int], "object"],
        decision_positions: Mapping[tuple[int, int], int] | None = None,
    ) -> "PairRows":
        """Build sorted pair rows from a ``pair -> PairDecision`` map.

        The construction only reads the public :class:`PairDecision`
        fields, so dense- and sparse-layout results (whose decisions
        are value-identical) serialize to byte-identical rows.
        """
        return cls.from_columns(
            PairColumns.from_decisions(decisions), decision_positions
        )

    def to_arrays(self, prefix: str = "pair_") -> dict[str, np.ndarray]:
        """Flatten to the prefixed column dict the codec serializes."""
        out = {prefix + "keys": self.keys}
        for name in PAIR_FLOAT_COLUMNS:
            out[prefix + name] = getattr(self, name)
        out[prefix + "flags"] = self.flags
        out[prefix + "decision_pos"] = self.decision_pos
        return out

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = "pair_"
    ) -> "PairRows":
        """Rebuild from a decoded snapshot's column dict.

        Raises:
            ServingError: when a pair column is missing.
        """
        try:
            return cls(
                keys=arrays[prefix + "keys"],
                flags=arrays[prefix + "flags"],
                decision_pos=arrays[prefix + "decision_pos"],
                **{
                    name: arrays[prefix + name] for name in PAIR_FLOAT_COLUMNS
                },
            )
        except KeyError as exc:
            raise ServingError(
                f"snapshot is missing pair column {exc.args[0]!r}"
            ) from exc


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
    def from_truths(
        cls,
        dataset: "Dataset",
        chosen: Mapping[int, int],
        probabilities: Sequence[float],
    ) -> "ItemRows":
        """Build item rows from a fused truth assignment.

        Provenance is the chosen value's provider list — the sources
        whose claim supports the published truth.
        """
        item_ids = np.fromiter(sorted(chosen), dtype=np.int64, count=len(chosen))
        truth = np.fromiter(
            (chosen[int(i)] for i in item_ids), dtype=np.int64, count=len(item_ids)
        )
        probability = np.fromiter(
            (float(probabilities[int(v)]) for v in truth),
            dtype=np.float64,
            count=len(truth),
        )
        providers = dataset.providers
        supporter_lists = [providers[int(v)] for v in truth]
        offsets = np.zeros(len(item_ids) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in supporter_lists], out=offsets[1:])
        flat = np.fromiter(
            (s for lst in supporter_lists for s in lst),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        return cls(
            ids=item_ids,
            truth=truth,
            probability=probability,
            prov_offsets=offsets,
            prov_sources=flat,
        )

    def to_arrays(self, prefix: str = "item_") -> dict[str, np.ndarray]:
        """Flatten to the prefixed column dict the codec serializes."""
        return {
            prefix + "ids": self.ids,
            prefix + "truth": self.truth,
            prefix + "probability": self.probability,
            prefix + "prov_offsets": self.prov_offsets,
            prefix + "prov_sources": self.prov_sources,
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = "item_"
    ) -> "ItemRows":
        """Rebuild from a decoded snapshot's column dict.

        Raises:
            ServingError: when an item column is missing.
        """
        try:
            return cls(
                ids=arrays[prefix + "ids"],
                truth=arrays[prefix + "truth"],
                probability=arrays[prefix + "probability"],
                prov_offsets=arrays[prefix + "prov_offsets"],
                prov_sources=arrays[prefix + "prov_sources"],
            )
        except KeyError as exc:
            raise ServingError(
                f"snapshot is missing item column {exc.args[0]!r}"
            ) from exc

    def take(self, rows: np.ndarray) -> "ItemRows":
        """A new :class:`ItemRows` holding the selected rows (re-packed CSR)."""
        lengths = (self.prov_offsets[1:] - self.prov_offsets[:-1])[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        for out_row, row in enumerate(rows):
            start, end = self.prov_offsets[row], self.prov_offsets[row + 1]
            flat[offsets[out_row] : offsets[out_row + 1]] = self.prov_sources[
                start:end
            ]
        return ItemRows(
            ids=self.ids[rows],
            truth=self.truth[rows],
            probability=self.probability[rows],
            prov_offsets=offsets,
            prov_sources=flat,
        )


def copier_totals(pairs: PairRows, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
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


def merge_pair_rows(
    base: PairRows, upserts: PairRows, removed_keys: np.ndarray
) -> PairRows:
    """Apply a delta's pair upserts/removals over a base row set."""
    keys = np.concatenate([base.keys, upserts.keys])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq, first, counts = np.unique(
        sorted_keys, return_index=True, return_counts=True
    )
    # Stable sort keeps base rows before upsert rows within one key, so
    # the *last* row of each group is the newest.
    take = order[first + counts - 1]
    keep = np.ones(len(uniq), dtype=bool)
    if len(removed_keys):
        keep &= ~np.isin(uniq, removed_keys)
    take = take[keep]

    def pick(column_base, column_new):
        return np.concatenate([column_base, column_new])[take]

    return PairRows(
        keys=uniq[keep],
        flags=pick(base.flags, upserts.flags),
        decision_pos=pick(base.decision_pos, upserts.decision_pos),
        **{
            name: pick(getattr(base, name), getattr(upserts, name))
            for name in PAIR_FLOAT_COLUMNS
        },
    )


def merge_item_rows(
    base: ItemRows, upserts: ItemRows, removed_ids: np.ndarray
) -> ItemRows:
    """Apply a delta's item upserts/removals over a base row set."""
    ids = np.concatenate([base.ids, upserts.ids])
    order = np.argsort(ids, kind="stable")
    uniq, first, counts = np.unique(ids[order], return_index=True, return_counts=True)
    take = order[first + counts - 1]
    keep = np.ones(len(uniq), dtype=bool)
    if len(removed_ids):
        keep &= ~np.isin(uniq, removed_ids)
    take = take[keep]
    combined = ItemRows(
        ids=ids,
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


class VerdictStore:
    """Directory manager for versioned verdict snapshots.

    Snapshot files are immutable and published atomically (written to a
    temp name, then renamed); the ``CURRENT`` pointer is replaced the
    same way, so a concurrently-reading :class:`~repro.serving.reader.
    VerdictReader` always sees either the old or the new version, never
    a torn one.
    """

    def __init__(self, root: Path | str, create: bool = True):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ServingError(f"{self.root}: verdict store directory not found")

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

    def _publish(self, snapshot_id: int, data: bytes) -> int:
        path = self.snapshot_path(snapshot_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        pointer = self.root / "CURRENT"
        tmp = pointer.with_name("CURRENT.tmp")
        tmp.write_text(
            json.dumps(
                {"snapshot_id": snapshot_id, "format_version": FORMAT_VERSION}
            )
            + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, pointer)
        return snapshot_id

    def _next_id(self) -> int:
        ids = self.snapshot_ids()
        return (ids[-1] + 1) if ids else 1

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_full(
        self,
        pairs: PairRows,
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
            "created": time.time(),
            "n_pairs": len(pairs),
            "n_items": len(items),
        }
        if labels is not None:
            meta["labels"] = {k: list(v) for k, v in labels.items()}
        arrays = {
            **pairs.to_arrays(),
            **items.to_arrays(),
            "copier_sources": copier_sources,
            "copier_scores": copier_scores,
        }
        return self._publish(snapshot_id, encode_snapshot(meta, arrays))

    def write_delta(
        self,
        base_id: int,
        pair_upserts: PairRows,
        removed_pair_keys: np.ndarray,
        item_upserts: ItemRows,
        removed_item_ids: np.ndarray,
        merged_pairs: PairRows,
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
            "created": time.time(),
            "n_pairs": len(pair_upserts),
            "n_items": len(item_upserts),
            "n_removed_pairs": int(len(removed_pair_keys)),
            "n_removed_items": int(len(removed_item_ids)),
        }
        if labels is not None:
            meta["labels"] = {k: list(v) for k, v in labels.items()}
        arrays = {
            **pair_upserts.to_arrays(),
            **item_upserts.to_arrays(),
            "removed_pair_keys": np.asarray(removed_pair_keys, dtype=np.int64),
            "removed_item_ids": np.asarray(removed_item_ids, dtype=np.int64),
            "copier_sources": copier_sources,
            "copier_scores": copier_scores,
        }
        return self._publish(snapshot_id, encode_snapshot(meta, arrays))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, snapshot_id: int) -> tuple[dict, dict]:
        """Decode one snapshot file (meta, arrays).

        Raises:
            ServingError: missing, truncated, corrupted or
                other-versioned snapshot.
        """
        path = self.snapshot_path(snapshot_id)
        if not path.is_file():
            raise ServingError(f"{path}: snapshot {snapshot_id} not found")
        return read_snapshot_file(path)

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

    The publisher tracks the last-published state, so each round it can
    extract exactly what changed:

    * pair changes come from
      :meth:`~repro.core.result.DetectionResult.decision_delta` — the
      INCREMENTAL detector's :attr:`changed_pairs` (re-opened, rebuilt
      or accuracy-refreshed pairs, straight from the bookkeeping) when
      available, a field-exact diff otherwise;
    * item changes are truths whose chosen value flipped or whose
      probability moved by more than :data:`ITEM_TOLERANCE`.

    When the pair delta would touch more than
    :data:`FULL_REWRITE_FRACTION` of the published rows, a fresh full
    snapshot is written instead.
    """

    def __init__(self, store: VerdictStore | Path | str, dataset: "Dataset"):
        self.store = store if isinstance(store, VerdictStore) else VerdictStore(store)
        self.dataset = dataset
        self.last_snapshot_id: int | None = None
        self.snapshot_ids: list[int] = []
        self._prev_detection: "DetectionResult | None" = None
        self._prev_pairs: PairRows = PairRows.empty()
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
        decision_positions: DecisionPositions | None = None,
    ) -> int:
        """Publish this round's verdicts + truths; returns the snapshot id."""
        from ..fusion.accu import choose_values

        dataset = self.dataset
        n_sources = dataset.n_sources
        method = detection.method if detection is not None else "none"
        chosen = choose_values(dataset, probabilities)
        items = ItemRows.from_truths(dataset, chosen, probabilities)

        if self.last_snapshot_id is None:
            pairs = (
                PairRows.from_columns(detection.columns(), decision_positions)
                if detection is not None
                else PairRows.empty()
            )
            snapshot_id = self.store.write_full(
                pairs,
                items,
                n_sources,
                method=method,
                round_no=round_no,
                labels=self._labels(),
            )
            self._prev_pairs = pairs
        else:
            snapshot_id = self._publish_update(
                round_no, detection, items, decision_positions, method
            )
        self.last_snapshot_id = snapshot_id
        self.snapshot_ids.append(snapshot_id)
        self._prev_detection = detection
        self._prev_items = items
        self._published_label_sizes = self._label_sizes()
        return snapshot_id

    def _publish_update(
        self,
        round_no: int,
        detection: "DetectionResult | None",
        items: ItemRows,
        decision_positions: DecisionPositions | None,
        method: str,
    ) -> int:
        n_sources = self.dataset.n_sources
        if detection is not None:
            delta = detection.decision_delta(self._prev_detection)
            pair_upserts = PairRows.from_columns(
                delta.changed.columns, decision_positions
            )
            removed = delta.removed
        else:
            pair_upserts, removed = PairRows.empty(), frozenset()
        removed_keys = encode_pairs(sorted(removed))
        merged_pairs = merge_pair_rows(self._prev_pairs, pair_upserts, removed_keys)

        item_upserts, removed_item_ids = self._item_delta(items)

        n_published = max(len(self._prev_pairs), 1)
        touched = len(pair_upserts) + len(removed_keys)
        if touched > FULL_REWRITE_FRACTION * n_published:
            snapshot_id = self.store.write_full(
                merged_pairs,
                items,
                n_sources,
                method=method,
                round_no=round_no,
                labels=self._labels(),
            )
        else:
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
        self._prev_pairs = merged_pairs
        return snapshot_id

    def _item_delta(self, items: ItemRows) -> tuple[ItemRows, np.ndarray]:
        """Items whose truth or probability materially moved since last publish."""
        prev = self._prev_items
        if not len(prev):
            return items, np.empty(0, dtype=np.int64)
        pos = np.searchsorted(prev.ids, items.ids)
        pos_clipped = np.minimum(pos, max(len(prev) - 1, 0))
        known = prev.ids[pos_clipped] == items.ids
        same_truth = np.zeros(len(items), dtype=bool)
        same_truth[known] = prev.truth[pos_clipped[known]] == items.truth[known]
        close_prob = np.zeros(len(items), dtype=bool)
        close_prob[known] = (
            np.abs(prev.probability[pos_clipped[known]] - items.probability[known])
            <= ITEM_TOLERANCE
        )
        changed_rows = np.nonzero(~(known & same_truth & close_prob))[0]
        removed_ids = prev.ids[~np.isin(prev.ids, items.ids)]
        return items.take(changed_rows), removed_ids
