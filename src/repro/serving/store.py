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
  accumulated scores ``C->``/``C<-``, the copying/early flags and the
  decision position from :class:`~repro.core.bound.PairBookkeeping` (-1
  when untracked); the three-way posterior is served, not stored;
* **item rows** — the fused truth (value id), its probability and its
  provenance (the sources supporting the chosen value, CSR-packed).

A **full** snapshot carries the complete state, a **delta** only
upserted/removed rows over a ``base`` snapshot; each labels the truths
it writes (:func:`stored_labels`).  :class:`SnapshotPublisher` drives
the lifecycle for the fusion loop: the first round publishes full, and
later rounds deltas against the state it last published.  **One rule,
for both row families (:func:`diff`): a delta's row is new, or a column
a file stores moved against the *published* row** — the flags, the
decision position, a truth and its supporters exactly, the scores and
the probability past :data:`SCORE_TOLERANCE` — except that when a
result carries :attr:`~repro.core.result.DetectionResult.changed_pairs`
(the INCREMENTAL bookkeeping's re-opened/rebuilt pairs) the rows it
names are the only published pairs eligible.  :func:`upsert` applies a
delta, for the publisher and for a reader resolving a chain.  A delta
that would approach a rewrite anyway is written as a fresh full
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

A file stores less than it serves (:func:`stored`): a pair row's key as
``pair_s1`` / ``pair_s2``, no posterior (Eq. 2 makes the three a function
of the scores and the ``alpha`` the meta records), every integer column
at the narrowest width that holds it.  :meth:`VerdictStore.load` derives
the rest (:func:`loaded`), so a reader sees the int64, five-float schema
the store was handed, posteriors bit-equal to the detector's.

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

from ..core.contribution import exact_posteriors
from ..core.pairspace import decode_pair_keys, encode_pair_keys, encode_pairs
from ..core.pairspace import member_rows
from ..core.params import CopyParams
from ..core.result import PAIR_FLOAT_COLUMNS, PairColumns
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

#: The store's one tolerance, for both row families (:func:`diff`): a
#: stored score or probability that moves by more than this against the
#: *published* value is re-published, so a served one never drifts
#: further than this from the exact one.
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


#: What a file stores of a pair row; :func:`loaded` derives the rest.
_STORED_PAIRS = ("s1", "s2", "c_fwd", "c_bwd", "flags", "decision_pos")
_POSTERIORS = ("pair_independent", "pair_forward", "pair_backward")


def stored(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The arrays as a snapshot stores them: ``pair_keys`` as ``pair_s1`` /
    ``pair_s2``, no posterior, and each signed integer array at the
    smallest width that holds its minimum and maximum (an empty one: int8)."""
    out = {}
    for name, array in arrays.items():
        if name == "pair_keys":
            out["pair_s1"], out["pair_s2"] = decode_pair_keys(array)
        elif name not in _POSTERIORS:
            out[name] = array
    for name, array in out.items():
        if array.dtype.kind == "i":
            lo, hi = int(array.min(initial=0)), int(array.max(initial=0))
            width = next(t for t in _STORED_INTS if t.min <= lo and hi <= t.max)
            out[name] = array.astype(width.dtype, copy=False)
    return out


def loaded(meta: dict, arrays: Mapping[str, np.ndarray], origin) -> tuple[dict, dict]:
    """Invert :func:`stored` on a decoded snapshot: every array read-only
    and every signed integer one int64, ``pair_keys`` rebuilt from its
    halves, the posteriors from the scores under the meta's ``alpha``
    (consumed).  Raises :class:`ServingError` naming ``origin`` on a
    missing or invalid ``alpha``, a missing or ragged pair column, or a
    ``pair_flags`` bit this build does not know."""
    meta, out = dict(meta), {}
    try:
        params = CopyParams(alpha=meta.pop("alpha", None))
    except (TypeError, ValueError) as exc:
        raise ServingError(f"{origin}: snapshot records no valid alpha ({exc})") from exc
    try:
        lengths = {len(arrays["pair_" + name]) for name in _STORED_PAIRS}
    except KeyError as exc:
        raise ServingError(
            f"{origin}: snapshot is missing pair column {exc.args[0]!r}"
        ) from exc
    if len(lengths) > 1:
        raise ServingError(
            f"{origin}: pair columns disagree in length ({sorted(lengths)})"
        )
    flags, known = arrays["pair_flags"], FLAG_COPYING | FLAG_EARLY
    alien = flags[(flags | known) != known]
    if len(alien):
        raise ServingError(
            f"{origin}: pair_flags carries unknown bits ({int(alien[0]) & ~known:#04x})"
        )
    for name, array in arrays.items():
        if array.dtype.kind == "i" and array.dtype.itemsize < 8:
            array = array.astype(np.int64)
        if name == "pair_s1":
            out["pair_keys"] = encode_pair_keys(array, arrays["pair_s2"])
        elif name == "pair_c_bwd":
            out[name] = array
            posteriors = exact_posteriors(arrays["pair_c_fwd"], array, params)
            out.update(zip(_POSTERIORS, posteriors))
        elif name != "pair_s2":
            out[name] = array
    for array in out.values():
        array.flags.writeable = False
    return meta, out


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


def pairs_from_arrays(arrays: Mapping[str, np.ndarray]) -> PairColumns:
    """The pair table of :func:`pair_arrays`' arrays, or of a snapshot's
    as :meth:`VerdictStore.load` returns them (the read side)."""
    flags = arrays["pair_flags"]
    return PairColumns(
        arrays["pair_keys"],
        *(arrays["pair_" + name] for name in PAIR_FLOAT_COLUMNS),
        flags & FLAG_COPYING != 0,
        flags & FLAG_EARLY != 0,
        arrays["pair_decision_pos"],
    )


@dataclass
class ItemRows:
    """Columnar fused truths + provenance, sorted by item id."""

    keys: np.ndarray  #: int64 item ids, sorted unique
    truth: np.ndarray  #: int64 chosen value id per item
    probability: np.ndarray  #: float64 probability of the chosen value
    prov_offsets: np.ndarray  #: int64 CSR offsets (len(keys) + 1)
    prov_sources: np.ndarray  #: int64 supporting source ids, CSR-packed

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def empty(cls) -> "ItemRows":
        """A zero-row item table (the state before any publish)."""
        return cls(
            keys=np.empty(0, dtype=np.int64),
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
            keys=table.seg_items,
            truth=truth,
            probability=probabilities[truth],
            prov_offsets=offsets,
            prov_sources=sources,
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The named arrays a snapshot stores (``item_*``)."""
        return {
            "item_ids": self.keys,
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
                keys=arrays["item_ids"],
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
            keys=self.keys[rows],
            truth=self.truth[rows],
            probability=self.probability[rows],
            prov_offsets=offsets,
            prov_sources=flat,
        )

    def stack(self, other: "ItemRows", rows: np.ndarray) -> "ItemRows":
        """Rows ``rows`` of this table with ``other``'s appended (one CSR)."""
        offsets = np.concatenate(
            [self.prov_offsets, self.prov_offsets[-1] + other.prov_offsets[1:]]
        )
        flat = np.concatenate([self.prov_sources, other.prov_sources])
        return ItemRows(
            *(np.concatenate([getattr(self, name), getattr(other, name)])[rows]
              for name in ("keys", "truth", "probability")),
            *take_csr(offsets, flat, rows),
        )


def stored_labels(labels: Mapping[str, Sequence[str]], items: ItemRows) -> dict:
    """The label tables a snapshot stores: each name table it is handed,
    and for ``values`` only ``truths``, ``items``' chosen values' labels."""
    out = {name: list(table) for name, table in labels.items() if name != "values"}
    if "values" in labels:
        out["truths"] = [labels["values"][value] for value in items.truth.tolist()]
    return out


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


#: What :func:`diff` compares of a row, per table type: the columns a
#: file stores, ``(exactly, within SCORE_TOLERANCE)``; a ragged column is
#: named by its ``(offsets, flat)`` pair.  The served posteriors are
#: Eq. (2) of the two scores, so each moves at most half as far.
_STORED_COLUMNS = {
    PairColumns: (("copying", "early", "decision_pos"), ("c_fwd", "c_bwd")),
    ItemRows: (("truth", ("prov_offsets", "prov_sources")), ("probability",)),
}


def diff(published, current, changed: np.ndarray | None = None):
    """What ``current`` changes in ``published``, a table of its type:
    the store's one delta rule, for both row families.

    A row of ``current`` is upserted when its key is not published yet;
    a published one when ``changed`` (the detector's report, as keys)
    holds it — a pass-1 re-confirmation's scores are estimates and must
    not replace the exact ones — or, with no report, when a stored
    column moved: an exact one differs, or a score sits more than
    :data:`SCORE_TOLERANCE` from the published value.  When both tables
    hold the same keys (every round of a static world) the columns are
    compared in place, no lookup and no gather.

    Returns:
        ``(carried, removed_keys)``: a row mask over ``current`` and the
        published keys ``current`` no longer holds.
    """
    exact, close = _STORED_COLUMNS[type(current)]
    aligned = np.array_equal(published.keys, current.keys)
    if aligned:
        known, removed_keys = np.ones(len(current), dtype=bool), current.keys[:0]
    else:
        rows, known = member_rows(published.keys, current.keys)
        removed_keys = published.keys[~member_rows(current.keys, published.keys)[1]]
    if changed is not None:
        return ~known | np.isin(current.keys, changed), removed_keys
    if not aligned:
        here = np.nonzero(known)[0]
        current, published = current.take(here), published.take(rows[here])
    moved = np.zeros(len(current), dtype=bool)
    for name in close:
        change = getattr(current, name) - getattr(published, name)
        moved |= np.abs(change) > SCORE_TOLERANCE
    for name in exact:
        if isinstance(name, str):
            moved |= getattr(current, name) != getattr(published, name)
            continue
        # A ragged column: rows of one length compared element by element.
        old, new = ([getattr(t, part) for part in name] for t in (published, current))
        size = np.diff(old[0])
        moved |= size != np.diff(new[0])
        rest = np.nonzero(~moved)[0]
        unequal = take_csr(*old, rest)[1] != take_csr(*new, rest)[1]
        moved[np.repeat(rest, size[rest])[unequal]] = True
    carried = ~known
    carried[known] = moved
    return carried, removed_keys


def upsert(base, upserts, removed_keys: np.ndarray):
    """``base`` with the rows of ``upserts`` (a table of its type) added or
    replacing its own and the rows of ``removed_keys`` dropped: one delta
    applied, sorted by key as both inputs are."""
    keys = np.concatenate([base.keys, upserts.keys])
    keep = ~np.isin(keys, removed_keys)
    rows, replaced = member_rows(base.keys, upserts.keys)
    keep[rows[replaced]] = False
    rows = np.nonzero(keep)[0]
    return base.stack(upserts, rows[np.argsort(keys[rows], kind="stable")])


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
        """Encode the snapshot as it is stored (:func:`stored`), make it
        durable, then point ``CURRENT`` at it.

        Each file is fsynced before its rename and the directory after
        it, so a crash leaves ``CURRENT`` naming a snapshot that is whole
        on disk: a catalogued snapshot is durable, or it is not in the
        catalogue.
        """
        snapshot_id = meta["snapshot_id"]
        data = encode_snapshot(meta, stored(arrays))
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
        alpha: float,
        method: str = "unknown",
        round_no: int | None = None,
        labels: Mapping[str, Sequence[str]] | None = None,
    ) -> int:
        """Publish a full snapshot (posteriors under ``alpha``); returns its id."""
        snapshot_id = self._next_id()
        copier_sources, copier_scores = copier_totals(pairs, n_sources)
        meta = {
            "snapshot_id": snapshot_id,
            "kind": "full",
            "base_id": None,
            "n_sources": int(n_sources),
            "alpha": float(alpha),
            "method": method,
            "round": round_no,
            "n_pairs": len(pairs),
            "n_items": len(items),
        }
        if labels is not None:
            meta["labels"] = stored_labels(labels, items)
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
        alpha: float,
        method: str = "unknown",
        round_no: int | None = None,
        labels: Mapping[str, Sequence[str]] | None = None,
    ) -> int:
        """Publish a delta over ``base_id``; returns the new snapshot id.

        ``merged_pairs`` is the post-delta pair state, used only to
        recompute the (always-complete) copier ranking.  The name tables
        in ``labels`` replace the chain's (:func:`stored_labels`).
        """
        snapshot_id = self._next_id()
        copier_sources, copier_scores = copier_totals(merged_pairs, n_sources)
        meta = {
            "snapshot_id": snapshot_id,
            "kind": "delta",
            "base_id": int(base_id),
            "n_sources": int(n_sources),
            "alpha": float(alpha),
            "method": method,
            "round": round_no,
            "n_pairs": len(pair_upserts),
            "n_items": len(item_upserts),
            "n_removed_pairs": int(len(removed_pair_keys)),
            "n_removed_items": int(len(removed_item_ids)),
        }
        if labels is not None:
            meta["labels"] = stored_labels(labels, item_upserts)
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
        """Decode one snapshot file into the in-memory schema
        (:func:`loaded`): the meta and arrays it was written from.

        Raises:
            ServingError: missing, truncated, corrupted or
                other-versioned snapshot.
        """
        path = self.snapshot_path(snapshot_id)
        if not path.is_file():
            raise ServingError(f"{path}: snapshot {snapshot_id} not found")
        meta, arrays = read_snapshot_file(path)
        return loaded(meta, arrays, path)

    def load_chain(self, snapshot_id: int) -> list[tuple[dict, dict]]:
        """The snapshot plus its delta ancestry, base-full first.

        Raises:
            ServingError: on a missing base or a malformed chain.
        """
        chain: list[tuple[dict, dict]] = []
        current, seen = snapshot_id, set()
        while True:
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


class SnapshotPublisher:
    """Publishes one store snapshot per fusion round (full, then deltas).

    The publisher keeps the state it last published — the merged pair
    table and the merged item rows — and each round upserts what
    :func:`diff` finds changed in it (the rule in the module docstring).

    When the pair delta would touch more than
    :data:`FULL_REWRITE_FRACTION` of the published rows, a fresh full
    snapshot is written instead — with no report, the round's table as
    it is: no gather, no merge of rows about to be overwritten.
    """

    def __init__(
        self, store: VerdictStore | Path | str, dataset: "Dataset", params: CopyParams
    ):
        self.store = store if isinstance(store, VerdictStore) else VerdictStore(store)
        self.dataset = dataset
        self.params = params
        self.last_snapshot_id: int | None = None
        self.snapshot_ids: list[int] = []
        self._prev_pairs = _NO_PAIRS
        self._prev_items: ItemRows = ItemRows.empty()
        self._published_label_sizes: tuple[int, int] | None = None

    def _labels(self) -> dict[str, Sequence[str]]:
        return {
            "sources": self.dataset.source_names,
            "items": self.dataset.item_names,
            "values": self.dataset.value_label,
        }

    def _label_sizes(self) -> tuple[int, int]:
        return (self.dataset.n_sources, self.dataset.n_items)

    def _delta_labels(self) -> dict[str, Sequence[str]]:
        """The value table, to label the delta's truths, and the name
        tables too when they grew since the last publish.

        A streaming epoch can intern new sources and items, so a delta
        must re-ship the name tables whenever their sizes moved; otherwise
        a reader resolving a freshly-interned id against the stale tables
        would fall off the end.  Interning is append-only, so same size
        means same tables.
        """
        if self._published_label_sizes == self._label_sizes():
            return {"values": self.dataset.value_label}
        return self._labels()

    def rebind(self, dataset: "Dataset") -> None:
        """Point the publisher at a grown snapshot of the same world.

        Streaming epochs hand the publisher a fresh immutable
        :class:`~repro.data.Dataset` each time the claim ledger moves.
        Growth in sources, items or values is fine: interning is
        append-only, ids — and therefore pair keys — are stable, and the
        next delta re-ships the name tables via :meth:`_delta_labels`.
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
            changed = None if reported is None else encode_pairs(reported)
            carried, removed_keys = diff(self._prev_pairs, pairs, changed)
            touched = np.count_nonzero(carried) + len(removed_keys)
            rewrite = touched > FULL_REWRITE_FRACTION * max(len(self._prev_pairs), 1)
            if rewrite and reported is None:
                merged_pairs = pairs  # the round's own table is the new state
            else:
                pair_upserts = pairs.take(carried)
                merged_pairs = upsert(self._prev_pairs, pair_upserts, removed_keys)
        if rewrite:
            snapshot_id = self.store.write_full(
                merged_pairs,
                items,
                n_sources,
                self.params.alpha,
                method=method,
                round_no=round_no,
                labels=self._labels(),
            )
        else:
            carried, removed_item_ids = diff(self._prev_items, items)
            item_upserts = items.take(np.nonzero(carried)[0])
            snapshot_id = self.store.write_delta(
                self.last_snapshot_id,
                pair_upserts,
                removed_keys,
                item_upserts,
                removed_item_ids,
                merged_pairs,
                n_sources,
                self.params.alpha,
                method=method,
                round_no=round_no,
                labels=self._delta_labels(),
            )
            # What a reader now serves, the next delta's baseline.
            items = upsert(self._prev_items, item_upserts, removed_item_ids)
        self.last_snapshot_id = snapshot_id
        self.snapshot_ids.append(snapshot_id)
        self._prev_pairs = merged_pairs
        self._prev_items = items
        self._published_label_sizes = self._label_sizes()
        return snapshot_id
