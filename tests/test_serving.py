"""The verdict-serving layer: codec robustness, store lifecycle, reader API.

Covers the tentpole's guarantees end to end:

* every way a snapshot file can be bad (truncation, corruption, foreign
  bytes, a newer format version) surfaces as ``ServingError`` — never a
  raw codec traceback;
* full + delta publishing round-trips through ``VerdictStore`` and the
  chain resolver;
* the ``VerdictReader`` API semantics (unobserved pairs, label lookups,
  self-pair/out-of-range errors, LRU behaviour across ``refresh()``);
* reads stay consistent — verified per ``snapshot_id`` — while a writer
  republishes concurrently;
* INCREMENTAL delta snapshots rewrite exactly the re-opened/rebuilt
  pairs reported by the bookkeeping;
* dense and sparse ``pair_layout`` detections serialize to identical
  store rows;
* the ``run_fusion(snapshot_store=)`` hook and the
  ``fuse --store`` / ``query`` CLI round trip.
"""

from __future__ import annotations

import json
import random
import re
import struct
import tempfile
import threading
import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import CopyParams, IncrementalDetector, detect, posterior
from repro.core.contribution import exact_posteriors
from repro.conformance.generators import DrawChooser
from repro.core.pairspace import decode_pairs, encode_pairs
from repro.core.result import (
    PAIR_FLOAT_COLUMNS,
    DetectionResult,
    PairColumns,
    PairDecision,
)
from repro.data import ClaimDelta, ClaimLedger, DatasetBuilder, save_claims
from repro.data.examples import motivating_example
from repro.fusion import FusionConfig, run_fusion, vote_probabilities
from repro.serving import (
    FORMAT_VERSION,
    ItemRows,
    ServingError,
    Snapshot,
    SnapshotPublisher,
    Truth,
    Verdict,
    VerdictReader,
    VerdictStore,
    copier_totals,
    decode_snapshot,
    encode_snapshot,
    read_snapshot_file,
)
from repro.serving.store import FULL_REWRITE_FRACTION, SCORE_TOLERANCE
from repro.synth import make_profile
from tests.rounds import fuse_keeping_rounds
from tests.test_columns import snapshot_arrays


#: The parameters the hand-built verdict tables are scored and published under.
_PARAMS = CopyParams()


def _decision(params: CopyParams, c_fwd: float, c_bwd: float) -> PairDecision:
    post = posterior(c_fwd, c_bwd, params)
    return PairDecision(
        c_fwd=c_fwd, c_bwd=c_bwd, posterior=post, copying=post.copying, early=False
    )


def _result(decisions: dict, n_sources: int) -> DetectionResult:
    return DetectionResult(
        method="test", n_sources=n_sources, decisions=dict(decisions)
    )


def _flat_world(n_sources: int):
    """``n_sources`` sources all claiming one value of one item."""
    builder = DatasetBuilder()
    for source_id in range(n_sources):
        builder.add(f"S{source_id}", "item", "v")
    return builder.build()


@pytest.fixture(scope="module")
def world():
    return make_profile("book_cs", scale=0.05, seed=11)


# ----------------------------------------------------------------------
# Codec robustness (satellite: truncated/corrupted/newer all ServingError)
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.fixture(scope="class")
    def sample(self) -> bytes:
        return encode_snapshot(
            {"snapshot_id": 3, "kind": "full", "n_sources": 4},
            {
                "keys": np.arange(5, dtype=np.int64),
                "scores": np.linspace(0.0, 1.0, 3),
                "flags": np.array([1, 0, 2], dtype=np.uint8),
            },
        )

    def test_roundtrip(self, sample):
        meta, arrays = decode_snapshot(sample)
        assert meta["snapshot_id"] == 3
        assert np.array_equal(arrays["keys"], np.arange(5))
        assert np.allclose(arrays["scores"], [0.0, 0.5, 1.0])
        assert arrays["flags"].dtype == np.uint8

    def test_decoded_arrays_are_read_only(self, sample):
        _, arrays = decode_snapshot(sample)
        with pytest.raises(ValueError):
            arrays["keys"][0] = 99

    def test_every_truncation_is_a_serving_error(self, sample):
        # No prefix of a valid snapshot may decode — and none may leak a
        # struct/json/numpy traceback.
        for cut in range(len(sample)):
            with pytest.raises(ServingError):
                decode_snapshot(sample[:cut])

    def test_bad_magic(self, sample):
        with pytest.raises(ServingError, match="not a verdict snapshot"):
            decode_snapshot(b"ZZZZ" + sample[4:])

    def test_newer_format_version_refused(self, sample):
        _, _, header_len = struct.unpack_from("<4sII", sample)
        doctored = (
            struct.pack("<4sII", b"RVSS", FORMAT_VERSION + 1, header_len)
            + sample[12:]
        )
        with pytest.raises(ServingError, match="newer than this build"):
            decode_snapshot(doctored)

    def test_corrupted_header_is_a_serving_error(self, sample):
        corrupted = bytearray(sample)
        corrupted[14] ^= 0xFF  # inside the JSON header
        with pytest.raises(ServingError):
            decode_snapshot(bytes(corrupted))

    def test_corrupted_payload_fails_checksum(self, sample):
        corrupted = bytearray(sample)
        corrupted[-1] ^= 0xFF
        with pytest.raises(ServingError, match="checksum"):
            decode_snapshot(bytes(corrupted))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ServingError, match="cannot read"):
            read_snapshot_file(tmp_path / "nope.rvs")


# ----------------------------------------------------------------------
# Stored widths: narrow on disk, int64 in memory
# ----------------------------------------------------------------------
_WIDTHS = [np.iinfo(t) for t in (np.int8, np.int16, np.int32, np.int64)]

#: -1, 0, each narrow width's bounds +-1, and the int64 extremes.
_INT_EDGES = [-1, 0, _WIDTHS[-1].min, _WIDTHS[-1].max] + [
    bound + step
    for info in _WIDTHS[:-1]
    for bound in (info.min, info.max)
    for step in (-1, 0, 1)
]


def _no_pairs() -> PairColumns:
    return PairColumns.from_decisions({})


_NO_KEYS = np.empty(0, dtype=np.int64)


def _snapshot(
    pairs: PairColumns,
    items: ItemRows | None = None,
    n_sources: int = 3,
    base_id: int | None = None,
    removed_pairs: np.ndarray = _NO_KEYS,
    removed_items: np.ndarray = _NO_KEYS,
    merged: PairColumns | None = None,
    labels: dict | None = None,
    alpha: float = _PARAMS.alpha,
) -> Snapshot:
    """A version as the publisher builds one (a delta when ``base_id`` is
    set), ranking the copiers of ``merged``, the state after it
    (default: ``pairs``)."""
    meta = {"base_id": base_id, "n_sources": n_sources, "alpha": alpha,
            "method": "test", "round": None}
    if labels is not None:
        meta["labels"] = labels
    return Snapshot(
        meta, pairs, ItemRows.empty() if items is None else items,
        removed_pairs, removed_items,
        *copier_totals(pairs if merged is None else merged, n_sources),
    )


class TestStoredWidths:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_INT_EDGES), st.integers(-(2**63), 2**63 - 1)),
            max_size=12,
        )
    )
    def test_integer_columns_round_trip_at_the_narrowest_width(self, values):
        column = np.array(values, dtype=np.int64)
        items = ItemRows(
            keys=column,
            truth=column[::-1].copy(),
            probability=np.linspace(0.0, 1.0, len(column)),
            prov_offsets=column,
            prov_sources=column,
        )
        narrowest = next(
            info.dtype for info in _WIDTHS
            if all(info.min <= value <= info.max for value in values)
        )
        with tempfile.TemporaryDirectory() as root:
            store = VerdictStore(root)
            sid = store.write(_snapshot(_no_pairs(), items, n_sources=0))
            _, stored = read_snapshot_file(store.snapshot_path(sid))
            loaded = store.load(sid).items
        for name, field in (("item_ids", "keys"), ("item_truth", "truth"),
                            ("item_prov_offsets", "prov_offsets"),
                            ("item_prov_sources", "prov_sources")):
            assert stored[name].dtype == narrowest, name
            assert getattr(loaded, field).dtype == np.int64, name
            assert not getattr(loaded, field).flags.writeable, name
        assert loaded.keys.tolist() == values
        assert loaded.truth.tolist() == values[::-1]
        # Floats and the flag byte are stored as they are.
        assert stored["item_probability"].dtype == np.float64
        assert stored["pair_flags"].dtype == np.uint8
        assert loaded.probability.tolist() == items.probability.tolist()

    def test_merged_offsets_past_int16_are_served_exactly(self, tmp_path):
        """A full whose CSR offsets fit int16, then a delta that pushes the
        merged offsets past 32,767: both files store int16 offsets, and
        the reader serves every item's supporters exactly (summed in the
        stored int16, the merged offsets would wrap)."""
        n_sources, width = 300, 250

        def rows(ids, shift):
            supporters = {
                item: (np.arange(width) * 7 + item + shift) % n_sources for item in ids
            }
            table = ItemRows(
                keys=np.array(ids, dtype=np.int64),
                truth=np.array(ids, dtype=np.int64) * 2,
                probability=np.full(len(ids), 0.5),
                prov_offsets=np.arange(len(ids) + 1, dtype=np.int64) * width,
                prov_sources=np.concatenate(list(supporters.values())),
            )
            return table, supporters

        store = VerdictStore(tmp_path)
        base, expected = rows(range(120), 0)  # offsets end at 30,000
        full = store.write(_snapshot(_no_pairs(), base, n_sources))
        upserts, moved = rows(range(100, 140), 11)  # 20 re-published, 20 new
        delta = store.write(_snapshot(_no_pairs(), upserts, n_sources, base_id=full))
        expected.update(moved)
        for sid in (full, delta):
            _, stored = read_snapshot_file(store.snapshot_path(sid))
            assert stored["item_prov_offsets"].dtype == np.int16
            assert stored["item_prov_sources"].dtype == np.int16
        reader = VerdictReader(store)
        assert reader.cache_info()["n_items"] == 140
        assert reader._view.snapshot.items.prov_offsets[-1] == 140 * width
        for item, supporters in expected.items():
            truth = reader.get_truth(item)
            assert truth.value == 2 * item
            assert truth.supporters == tuple(supporters.tolist()), item


# ----------------------------------------------------------------------
# Store lifecycle: full + delta publishing, chain resolution, robustness
# ----------------------------------------------------------------------
class TestStore:
    def test_missing_store_directory(self, tmp_path):
        with pytest.raises(ServingError, match="not found"):
            VerdictStore(tmp_path / "absent", create=False)

    def test_empty_store_has_no_current(self, tmp_path):
        store = VerdictStore(tmp_path)
        assert store.current_id() is None
        with pytest.raises(ServingError, match="no published snapshot"):
            VerdictReader(store)

    def test_corrupted_current_pointer(self, tmp_path):
        store = VerdictStore(tmp_path)
        (tmp_path / "CURRENT").write_text("not json")
        with pytest.raises(ServingError, match="CURRENT"):
            store.current_id()

    def test_full_snapshot_roundtrip(self, tmp_path, params):
        store = VerdictStore(tmp_path)
        decisions = {(0, 1): _decision(params, 5.0, 4.0)}
        pairs = PairColumns.from_decisions(decisions)
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        assert store.current_id() == sid
        meta, back = store.load(sid)[:2]
        assert meta["kind"] == "full"
        assert meta["n_sources"] == 3
        assert back.keys.tolist() == [1]  # (0 << 32) | 1
        assert back.c_fwd[0] == 5.0

    def test_truncated_store_file_is_a_serving_error(self, tmp_path, params):
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        path = store.snapshot_path(sid)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ServingError, match="truncated"):
            VerdictReader(store)

    def test_newer_versioned_snapshot_in_store(self, tmp_path, params):
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        path = store.snapshot_path(sid)
        data = path.read_bytes()
        _, _, header_len = struct.unpack_from("<4sII", data)
        path.write_bytes(
            struct.pack("<4sII", b"RVSS", FORMAT_VERSION + 7, header_len)
            + data[12:]
        )
        with pytest.raises(ServingError, match="newer than this build"):
            VerdictReader(store)

    def test_older_versioned_snapshot_in_store(self, tmp_path, params):
        # An older store is refused by file name, with the remedy (a store
        # is derived data): version 4 labelled every value, where this
        # build reads each truth's label, and a build reads only the
        # version it writes.
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        path = store.snapshot_path(sid)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 4) + data[8:])
        message = f"^{re.escape(str(path))}: .*version 4 is older than this build"
        with pytest.raises(ServingError, match=message + ".*re-publish"):
            VerdictReader(store)

    def _rewritten(self, tmp_path, params, edit):
        """A one-snapshot store whose file was re-encoded after ``edit``
        changed its decoded arrays; returns ``(store, path)``."""
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions(
            {(0, 1): _decision(params, 5.0, 4.0), (1, 2): _decision(params, -3.0, 2.0)}
        )
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        path = store.snapshot_path(sid)
        meta, arrays = read_snapshot_file(path)
        arrays = {name: array.copy() for name, array in arrays.items()}
        edit(arrays)
        path.write_bytes(encode_snapshot(meta, arrays))
        return store, path

    def test_unknown_flag_bits_in_store(self, tmp_path, params):
        # A bit this build does not know is a verdict it cannot serve:
        # refused by file name, not read as if the bit were not there.
        def edit(arrays):
            arrays["pair_flags"][1] |= 0x40

        store, path = self._rewritten(tmp_path, params, edit)
        with pytest.raises(ServingError, match="unknown bits") as excinfo:
            VerdictReader(store)
        assert str(path) in str(excinfo.value) and "0x40" in str(excinfo.value)

    def test_ragged_pair_columns_in_store(self, tmp_path, params):
        # A short column must fail at open, naming the file — not as an
        # IndexError on whichever query first reaches the missing row.
        def edit(arrays):
            arrays["pair_c_bwd"] = arrays["pair_c_bwd"][:1]

        store, path = self._rewritten(tmp_path, params, edit)
        with pytest.raises(ServingError, match="disagree in length") as excinfo:
            VerdictReader(store)
        assert str(path) in str(excinfo.value)

    def test_a_moved_decision_position_is_republished(self, tmp_path, example, params):
        """Same verdicts, decision positions 3 -> 7: the delta carries
        those rows and the reader serves 7 (at the parent the diff read
        the seven verdict columns only: 0 pair rows, the reader said 3)."""
        decisions = {
            (s1, s2): _decision(params, 5.0 - s2, 4.0 - s1)
            for s1 in range(3)
            for s2 in range(s1 + 1, 5)
        }
        moved = [(0, 1), (1, 3), (2, 4)]
        pub = SnapshotPublisher(tmp_path, example, params)
        probs = [0.9] * len(example.value_item)
        for round_no, position in ((1, 3), (2, 7)):
            result = _result(decisions, example.n_sources)
            result.decision_pos = dict.fromkeys(moved, position)
            sid = pub.publish_round(round_no, result, probs)
        meta, pairs = VerdictStore(tmp_path).load(sid)[:2]
        assert (meta["kind"], meta["n_pairs"]) == ("delta", len(moved))
        assert decode_pairs(pairs.keys) == moved
        assert pairs.decision_pos.tolist() == [7] * len(moved)
        reader = VerdictReader(tmp_path)
        for pair in decisions:
            want = 7 if pair in moved else -1
            assert reader.get_verdict(*pair).decision_pos == want

    def test_delta_chain_with_missing_base(self, tmp_path, example, params):
        pub = SnapshotPublisher(tmp_path, example, params)
        probs = [0.9] * len(example.value_item)
        decisions = {
            (s1, s2): _decision(params, 5.0 - s2, 4.0 - s1)
            for s1 in range(3)
            for s2 in range(s1 + 1, 5)
        }
        sid1 = pub.publish_round(1, _result(decisions, example.n_sources), probs)
        decisions[(0, 1)] = _decision(params, 6.0, 4.0)
        sid2 = pub.publish_round(2, _result(decisions, example.n_sources), probs)
        store = VerdictStore(tmp_path)
        assert store.load(sid2)[0]["kind"] == "delta"
        store.snapshot_path(sid1).unlink()
        with pytest.raises(ServingError, match="not found"):
            VerdictReader(store)

    def test_a_delta_extends_the_chain_across_source_growth(self, tmp_path, params):
        """Full at 3 sources, then one changed pair at 5: a one-row delta
        whose chain reads back every pair (at the parent ``rebind``
        refused the grown dataset — stored keys moved with the count)."""

        base = {
            (0, 1): _decision(params, 5.0, 4.0),
            (0, 2): _decision(params, -3.0, -4.0),
            (1, 2): _decision(params, 6.0, 1.0),
        }
        pub = SnapshotPublisher(tmp_path, _flat_world(3), params)
        pub.publish_round(1, _result(base, 3), [0.9])
        pub.rebind(_flat_world(5))
        grown = {**base, (2, 4): _decision(params, 7.0, 2.0)}
        result = _result(grown, 5)
        result.changed_pairs = {(2, 4)}
        sid = pub.publish_round(2, result, [0.9])

        meta, pairs = VerdictStore(tmp_path).load(sid)[:2]
        assert (meta["kind"], meta["base_id"], meta["n_sources"]) == ("delta", 1, 5)
        assert decode_pairs(pairs.keys) == [(2, 4)]
        reader = VerdictReader(tmp_path)
        assert reader.n_sources == 5
        assert reader.labels["sources"] == tuple(f"S{i}" for i in range(5))
        for (s1, s2), decision in grown.items():
            verdict = reader.get_verdict(s2, s1)
            assert (verdict.c_fwd, verdict.copying) == (decision.c_fwd, decision.copying)
        assert reader.get_verdict(3, 4) is None
        # The ranking comes from the merged state: the newcomer's pair
        # counts beside the three rows the base snapshot holds.
        totals = [0.0] * 5
        for (s1, s2), decision in grown.items():
            totals[s1] += decision.posterior.forward
            totals[s2] += decision.posterior.backward
        ranking = {row.source: row.score for row in reader.top_copiers(5)}
        assert ranking == pytest.approx(
            {source: mass for source, mass in enumerate(totals) if mass > 0.0}
        )
        assert 4 in ranking

    @pytest.mark.parametrize(
        "base_id, message",
        [(2, "snapshot 2: base chain contains a cycle at 2"),
         (None, "snapshot 2: delta snapshot without a base_id")],
    )
    def test_a_malformed_chain_is_a_serving_error(self, tmp_path, params, base_id, message):
        """A delta naming itself as its base, or no base at all: refused
        when the chain is resolved, not looped over or read as a full."""
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        full = store.write(_snapshot(pairs))
        path = store.snapshot_path(store.write(_snapshot(pairs, base_id=full)))
        meta, arrays = read_snapshot_file(path)
        path.write_bytes(encode_snapshot({**meta, "base_id": base_id}, arrays))
        with pytest.raises(ServingError, match=f"^{message}$"):
            VerdictReader(store)

    def test_publish_lists_the_directory_once(self, tmp_path, params, monkeypatch):
        """Publishing costs the same in a full store as in an empty one:
        the directory is listed at a store's first publish, then ids are
        counted (at the parent every publish globbed, parsed and sorted
        every name — 8 ms of a 50 ms epoch after an hour of ``serve``)."""
        from pathlib import Path

        for snapshot_id in range(1, 5001):
            (tmp_path / f"snap-{snapshot_id:08d}.rvs").touch()
        (tmp_path / "CURRENT").write_text('{"snapshot_id": 4990}')  # ten orphans
        globs = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            globs.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        store = VerdictStore(tmp_path)
        ids = [store.write(_snapshot(pairs, alpha=params.alpha)) for _ in range(3)]
        assert ids == [5001, 5002, 5003]  # above the orphans beyond CURRENT
        assert globs == ["snap-*.rvs"]
        # A re-opened store lists once more and keeps counting upward.
        reopened = VerdictStore(tmp_path)
        ids.append(reopened.write(_snapshot(pairs, alpha=params.alpha)))
        ids.append(reopened.write(_snapshot(pairs, base_id=ids[-1], alpha=params.alpha)))
        assert ids == [5001, 5002, 5003, 5004, 5005]
        assert globs == ["snap-*.rvs"] * 2
        assert reopened.current_id() == 5005


# ----------------------------------------------------------------------
# The publishing contract: bits and positions exact, scores in tolerance
# ----------------------------------------------------------------------
def _random_table(n_sources: int, seed: int) -> PairColumns:
    """A verdict table over every pair of ``n_sources`` sources (PCG64
    draws only, so the bytes are the same on every platform)."""
    rng = np.random.default_rng(seed)
    s1, s2 = np.triu_indices(n_sources, 1)
    n = len(s1)
    c_fwd, c_bwd = (rng.uniform(-9.0, 9.0, n) for _ in range(2))
    return PairColumns(
        (s1.astype(np.int64) << 32) | s2,
        c_fwd,
        c_bwd,
        *exact_posteriors(c_fwd, c_bwd, _PARAMS),
        copying=rng.random(n) < 0.3,
        early=rng.random(n) < 0.5,
        decision_pos=rng.integers(-1, 40, n),
    )


def _rescored(table: PairColumns, c_fwd: np.ndarray, c_bwd: np.ndarray) -> PairColumns:
    """``table`` with new scores and the posteriors Eq. (2) gives them:
    a store keeps the scores and derives the posteriors, so a table whose
    posteriors moved apart from its scores is not one it can hold."""
    posteriors = exact_posteriors(c_fwd, c_bwd, _PARAMS)
    return replace(
        table, c_fwd=c_fwd, c_bwd=c_bwd,
        **dict(zip(("independent", "forward", "backward"), posteriors)),
    )


def _publish(publisher, round_no: int, table: PairColumns) -> dict:
    n_sources = publisher.dataset.n_sources
    result = DetectionResult("test", n_sources, table.decisions())
    sid = publisher.publish_round(round_no, result, [0.9])
    return publisher.store.load(sid)[0]


def _served(store_dir) -> PairColumns:
    return VerdictReader(store_dir)._view.snapshot.pairs


def _assert_serves(served: PairColumns, table: PairColumns):
    """The reader contract against the round's own table."""
    for name in ("keys", "copying", "early", "decision_pos"):
        np.testing.assert_array_equal(getattr(served, name), getattr(table, name))
    for name in PAIR_FLOAT_COLUMNS:
        drift = np.abs(getattr(served, name) - getattr(table, name))
        assert drift.max() <= SCORE_TOLERANCE, name


#: ``tests.test_columns._store_digest`` of the two-snapshot store of
#: ``test_a_rewrite_round_is_the_rounds_table``.  First pinned as a840957
#: wrote it (gathering the moved rows with ``pairs.take`` and merging them
#: over the published table, where the round's own table is now written); re-pinned
#: when ``_random_table`` began computing its posteriors from its scores,
#: as d42eee6 (format 3, every column stored) writes those inputs.
#: Re-pinned at format 5 (was c4fdb918...): 37c34fa's store with each
#: meta's value table replaced by its truths' labels and re-encoded is
#: byte-identical to what format 5 writes.  Re-pinned when ``load`` began
#: returning one ``Snapshot`` (was 87f49889...): 1ce74c4 writes both files
#: byte for byte as this build does, and its loaded arrays in ``Snapshot``
#: field order, under its files' meta, hash to this value.
REWRITE_STORE_SHA256 = "487266fe275b612caa80881eac35ad3bb145778b33f6352b059e52d7f4d4fedb"


#: A score or probability step below the tolerance; two of them pass it.
_CREEP = 0.6e-6


def _rule_rows(table: PairColumns | ItemRows) -> dict:
    """``key -> (exact columns, float columns)``: a table's rows as the
    store's rule reads them, the columns a file stores of a pair or item."""
    if isinstance(table, ItemRows):
        offsets, flat = table.prov_offsets.tolist(), table.prov_sources.tolist()
        supporters = [tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])]
        exact = zip(table.truth.tolist(), supporters)
        close = zip(table.probability.tolist())
    else:
        exact = zip(*(getattr(table, name).tolist()
                      for name in ("copying", "early", "decision_pos")))
        close = zip(table.c_fwd.tolist(), table.c_bwd.tolist())
    return dict(zip(table.keys.tolist(), zip(exact, close)))


def _required(served: dict, rows: dict, report: set | None = None) -> set:
    """The keys a delta from ``served`` to ``rows`` must carry: new ones,
    and of the published ones those reported or, with no report, those
    whose exact columns differ or whose floats sit past the tolerance."""

    def moved(old, new):
        far = (abs(was - now) > SCORE_TOLERANCE for was, now in zip(old[1], new[1]))
        return old[0] != new[0] or any(far)

    return {
        key for key, row in rows.items()
        if key not in served
        or (key in report if report is not None else moved(served[key], row))
    }


class _Schedule:
    """Rounds over a small world that grows, drawn one at a time.

    Each round moves a few pairs (new, vanished, a score that creeps
    below the tolerance or jumps, a flipped bit, a shifted position) and
    a few truths (a probability that creeps or jumps, a rival overtaking
    by 1e-9, a source joining the supporters through the ledger, a value
    the ledger interns overtaking by 1e-9, on the item or on a new one),
    and may creep every score or probability at once.  A round is plain, or
    reported (its ``changed_pairs`` name every pair it moved and a few it
    did not), or copy-oblivious (``detection=None``)."""

    def __init__(self, chooser):
        self.chooser = chooser
        self.ledger = ClaimLedger()
        self.ledger.apply([
            ClaimDelta(f"S{source}", f"I{item}", chooser.choice("abc"))
            for source in range(5)
            for item in range(3)
        ])
        dataset = self.ledger.snapshot()
        self.probabilities = [chooser.integer(1, 9) / 10 for _ in range(dataset.n_values)]
        self.pairs = {
            pair: self._fresh() for pair in combinations(range(dataset.n_sources), 2)
        }

    def _fresh(self) -> list:
        """``[c_fwd, c_bwd, copying, early, decision_pos]`` of a new pair."""
        draw = self.chooser
        scores = [draw.unit_float(-9.0, 9.0), draw.unit_float(-9.0, 9.0)]
        return scores + [draw.boolean(), draw.boolean(), draw.integer(-1, 40)]

    def _move_items(self) -> None:
        draw, probs = self.chooser, self.probabilities
        dataset = self.ledger.snapshot()
        truth = ItemRows.from_probabilities(dataset, probs).truth.tolist()
        for item in draw.subset(0, dataset.n_items - 1, 2):
            value = truth[item]
            move = draw.choice(("creep", "jump", "flip", "support", "intern"))
            if move == "creep":
                probs[value] += _CREEP
            elif move == "jump":
                probs[value] = draw.integer(1, 9) / 10
            elif move == "flip":
                # The item's values; a lone one can only overtake itself.
                rivals = [v for v, i in enumerate(dataset.value_item) if i == item]
                probs[draw.choice(rivals)] = probs[value] + 1e-9
            elif move == "intern":  # value id len(probs): no round labelled it
                name = draw.choice([dataset.item_names[item], f"I{dataset.n_items}"])
                source = draw.choice(dataset.source_names)
                self.ledger.apply([ClaimDelta(source, name, f"new{len(probs)}")])
                probs.append(probs[value] + 1e-9)
            else:
                source = draw.choice([*dataset.source_names, f"N{dataset.n_sources}"])
                self.ledger.apply([ClaimDelta(
                    source, dataset.item_names[item], dataset.value_label[value]
                )])
        if draw.boolean():
            self.probabilities = [p + _CREEP for p in probs]

    def next_round(self):
        """``(dataset, detection, probabilities, pair table or None for
        the published one, reported keys or None)``."""
        draw = self.chooser
        kind = draw.choice(("plain", "reported", "oblivious"))
        self._move_items()
        dataset = self.ledger.snapshot()
        if kind == "oblivious":
            return dataset, None, list(self.probabilities), None, set()
        universe = list(combinations(range(dataset.n_sources), 2))
        moved = {universe[i] for i in draw.subset(0, len(universe) - 1, 3)}
        for pair in moved:
            row = self.pairs.get(pair)
            if row is None:
                self.pairs[pair] = self._fresh()
                continue
            move = draw.choice(("creep", "jump", "copying", "early", "position", "vanish"))
            if move == "vanish":
                del self.pairs[pair]
            elif move == "creep":
                row[draw.integer(0, 1)] += _CREEP
            elif move == "jump":
                row[draw.integer(0, 1)] = draw.unit_float(-9.0, 9.0)
            elif move == "position":
                row[4] += 1
            else:
                row[2 if move == "copying" else 3] ^= True
        report = None
        if kind == "reported":
            report = moved | {universe[i] for i in draw.subset(0, len(universe) - 1, 2)}
        elif draw.boolean():
            for row in self.pairs.values():
                row[0] += _CREEP
        pairs = sorted(self.pairs)
        c_fwd, c_bwd, copying, early, position = (
            np.array([self.pairs[pair][i] for pair in pairs]) for i in range(5)
        )
        table = PairColumns(
            encode_pairs(pairs), c_fwd, c_bwd, *exact_posteriors(c_fwd, c_bwd, _PARAMS),
            copying.astype(bool), early.astype(bool), position.astype(np.int64),
        )
        detection = DetectionResult(
            "test", dataset.n_sources, table.decisions(), changed_pairs=report
        )
        reported = None if report is None else set(encode_pairs(report).tolist())
        return dataset, detection, list(self.probabilities), table, reported


class TestPublishingContract:
    N = 12  # 66 pairs

    @given(data=st.data())
    def test_a_reader_at_the_tip_serves_every_round(self, data):
        """The contract, for any schedule of rounds: after each publish a
        reader at the tip serves the round's pair keys, bits, positions,
        truths and supporters exactly and every float within the
        tolerance; a delta carries exactly the rows the rule requires
        against what was served before, and a full is written exactly
        when the rule touches more than ``FULL_REWRITE_FRACTION`` of it.
        Every truth is served with the round's item name and value label,
        whichever snapshot of the chain labelled it."""
        chooser = DrawChooser(data.draw)
        n_rounds = chooser.integer(2, 6)
        schedule = _Schedule(chooser)
        served_pairs, served_items = {}, {}
        with tempfile.TemporaryDirectory() as root:
            publisher = SnapshotPublisher(root, schedule.ledger.snapshot(), _PARAMS)
            for round_no in range(n_rounds):
                dataset, detection, probabilities, table, report = schedule.next_round()
                publisher.rebind(dataset)
                sid = publisher.publish_round(round_no, detection, probabilities)
                pairs = served_pairs if table is None else _rule_rows(table)
                items = _rule_rows(ItemRows.from_probabilities(dataset, probabilities))
                reader = VerdictReader(root)
                tip = reader._view.snapshot
                tip_pairs, tip_items = _rule_rows(tip.pairs), _rule_rows(tip.items)
                for served, rows in ((tip_pairs, pairs), (tip_items, items)):
                    assert served.keys() == rows.keys()
                    assert not _required(served, rows), round_no
                for item in tip_items:
                    truth = reader.get_truth(item)
                    assert truth.item_name == dataset.item_names[item], round_no
                    label = dataset.value_label[truth.value]
                    assert truth.value_label == label, round_no

                must = _required(served_pairs, pairs, report)
                gone = served_pairs.keys() - pairs.keys()
                touched = len(must) + len(gone)
                full = round_no == 0 or (
                    touched > FULL_REWRITE_FRACTION * max(len(served_pairs), 1)
                )
                snapshot = publisher.store.load(sid)
                assert snapshot.meta["kind"] == ("full" if full else "delta"), round_no
                if not full:
                    assert set(snapshot.pairs.keys.tolist()) == must
                    assert set(snapshot.removed_pair_keys.tolist()) == gone
                    assert set(snapshot.items.keys.tolist()) == _required(served_items, items)
                    assert set(snapshot.removed_item_ids.tolist()) == (
                        served_items.keys() - items.keys()
                    )
                served_pairs, served_items = tip_pairs, tip_items

    def test_drift_is_bounded_against_the_published_value(self, tmp_path):
        """(b) Ten rounds each add 0.4e-6 to one score: the row is
        re-published when it sits past the tolerance from what the store
        *holds* (rounds 3, 6, 9), never accumulating — and at no round
        does the reader serve a score further than the tolerance from
        the round's (at the parent: re-published every round)."""
        table = _random_table(self.N, seed=2)
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N), _PARAMS)
        _publish(publisher, 0, table)
        republished = []
        for step in range(1, 11):
            c_fwd = table.c_fwd.copy()
            c_fwd[7] += step * 0.4e-6
            current = _rescored(table, c_fwd, table.c_bwd)
            meta = _publish(publisher, step, current)
            assert meta["kind"] == "delta" and meta["n_pairs"] in (0, 1)
            if meta["n_pairs"]:
                republished.append(step)
            _assert_serves(_served(tmp_path), current)
        assert republished == [3, 6, 9]

    def test_a_reader_over_full_and_delta_serves_the_round(self, tmp_path):
        """(c) A third of the rows jitter inside the tolerance, a tenth
        move past it, some flip or shift: the chain ``[full, delta]``
        reads back as the round's table — bits and positions exactly,
        scores within the tolerance, re-published rows exactly."""
        table = _random_table(self.N, seed=3)
        rng = np.random.default_rng(4)
        n = len(table)
        loud = rng.random(n) < 0.1
        quiet = ~loud & (rng.random(n) < 0.3)
        jitter = np.where(loud, 1e-3, np.where(quiet, 1e-7, 0.0))
        flipped = rng.random(n) < 0.05
        shifted = rng.random(n) < 0.05
        current = replace(
            _rescored(
                table,
                *(getattr(table, name) + jitter * rng.uniform(0.5, 1.0, n)
                  for name in ("c_fwd", "c_bwd")),
            ),
            copying=table.copying ^ flipped,
            decision_pos=table.decision_pos + shifted,
        )
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N), _PARAMS)
        _publish(publisher, 1, table)
        meta = _publish(publisher, 2, current)
        must_go = loud | flipped | shifted
        assert 0 < must_go.sum() and (must_go | quiet).sum() < 0.6 * n
        chain = publisher.store.load_chain(meta["snapshot_id"])
        assert [snapshot.meta["kind"] for snapshot in chain] == ["full", "delta"]
        served = _served(tmp_path)
        _assert_serves(served, current)
        np.testing.assert_array_equal(served.c_fwd[must_go], current.c_fwd[must_go])

    def test_a_rewrite_round_is_the_rounds_table(self, tmp_path):
        """(d) Every score moves: the round is written as a full snapshot
        holding the round's table exactly — byte for byte what the parent
        wrote by gathering and merging the rows it then overwrote."""
        from tests.test_columns import _assert_tables_identical, _store_digest

        table = _random_table(self.N, seed=5)
        moved = table.take(np.arange(3, len(table)))  # three pairs vanish as well
        moved = _rescored(moved, moved.c_fwd + 0.5, moved.c_bwd + 0.5)
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N), _PARAMS)
        _publish(publisher, 1, table)
        meta = _publish(publisher, 2, moved)
        assert (meta["kind"], meta["n_pairs"], meta["base_id"]) == ("full", len(moved), None)
        _assert_tables_identical(publisher.store.load(meta["snapshot_id"]).pairs, moved)
        _assert_tables_identical(_served(tmp_path), moved)
        assert _store_digest(publisher.store) == REWRITE_STORE_SHA256


# ----------------------------------------------------------------------
# Reader API semantics + LRU behaviour across refresh
# ----------------------------------------------------------------------
class TestReader:
    @pytest.fixture()
    def published(self, tmp_path, example, params):
        probs = [0.9] * len(example.value_item)
        decisions = {
            (0, 1): _decision(params, 5.0, 4.0),
            (2, 5): _decision(params, -3.0, -4.0),
        }
        pub = SnapshotPublisher(tmp_path, example, params)
        pub.publish_round(1, _result(decisions, example.n_sources), probs)
        return tmp_path, pub, decisions, probs

    def test_get_verdict_matches_decisions(self, published, params):
        path, _, decisions, _ = published
        reader = VerdictReader(path)
        for (s1, s2), dec in decisions.items():
            for a, b in ((s1, s2), (s2, s1)):  # any order
                v = reader.get_verdict(a, b)
                assert (v.source_1, v.source_2) == (s1, s2)
                assert v.copying == dec.copying
                assert v.c_fwd == dec.c_fwd
                assert v.forward == dec.posterior.forward
                assert v.snapshot_id == reader.snapshot_id

    def test_unobserved_pair_is_none(self, published):
        reader = VerdictReader(published[0])
        assert reader.get_verdict(3, 4) is None

    def test_self_pair_and_out_of_range(self, published):
        reader = VerdictReader(published[0])
        with pytest.raises(ValueError, match="distinct"):
            reader.get_verdict(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            reader.get_verdict(0, reader.n_sources)
        with pytest.raises(ValueError, match="out of range"):
            reader.get_verdict(-1, 1)

    def test_get_truth_by_id_and_name(self, published, example):
        reader = VerdictReader(published[0])
        truth = reader.get_truth(0)
        assert truth.item == 0
        assert truth.item_name == example.item_names[0]
        assert truth.value_label == example.value_label[truth.value]
        assert truth.supporters  # provenance present
        assert reader.get_truth(example.item_names[0]) == truth
        assert reader.get_truth("no-such-item") is None

    def test_top_copiers_sorted_descending(self, published):
        reader = VerdictReader(published[0])
        top = reader.top_copiers(10)
        scores = [c.score for c in top]
        assert scores == sorted(scores, reverse=True)
        assert all(c.score > 0 for c in top)

    def test_lru_cache_hits_and_refresh_invalidation(
        self, published, example, params
    ):
        path, pub, decisions, probs = published
        reader = VerdictReader(path)
        first = reader.get_verdict(0, 1)
        again = reader.get_verdict(0, 1)
        assert again is first  # served from the view's LRU
        assert reader.cache_info()["verdict_cache"].hits >= 1

        changed = dict(decisions)
        changed[(0, 1)] = _decision(params, 9.0, 4.0)
        pub.publish_round(2, _result(changed, example.n_sources), probs)
        assert reader.refresh() is True
        assert reader.refresh() is False  # already current
        after = reader.get_verdict(0, 1)
        assert after.c_fwd == 9.0  # not the cached pre-refresh entry
        assert after.snapshot_id != first.snapshot_id

    @pytest.fixture()
    def no_cyclic_gc(self):
        """Only refcounting frees objects while the test runs (at the
        parent a view's LRU caches held its own bound methods: a cycle
        that lived until a gen-2 collection)."""
        import gc

        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_refresh_frees_the_replaced_view(
        self, published, example, params, no_cyclic_gc
    ):
        import weakref

        path, pub, decisions, probs = published
        reader = VerdictReader(path)
        reader.get_verdict(0, 1), reader.get_truth(0)  # both caches warm
        replaced = weakref.ref(reader._view)
        pub.publish_round(2, _result(decisions, example.n_sources), probs)
        assert reader.refresh() is True
        assert replaced() is None
        assert reader.get_verdict(0, 1).snapshot_id == 2

    def test_a_dropped_reader_frees_its_view(self, published, no_cyclic_gc):
        import weakref

        reader = VerdictReader(published[0])
        reader.get_verdict(0, 1), reader.get_truth(0)
        view = weakref.ref(reader._view)
        del reader
        assert view() is None


# ----------------------------------------------------------------------
# Served values: the stored rows, as plain Python values, over a chain
# ----------------------------------------------------------------------
_VERDICT_TYPES = (int, int, bool, bool, float, float, float, float, float, int, int)


def _items(ids, truth, probability, supporters) -> ItemRows:
    return ItemRows(
        keys=np.asarray(ids, dtype=np.int64),
        truth=np.asarray(truth, dtype=np.int64),
        probability=np.asarray(probability, dtype=np.float64),
        prov_offsets=np.cumsum([0] + [len(s) for s in supporters], dtype=np.int64),
        prov_sources=np.asarray([s for group in supporters for s in group], dtype=np.int64),
    )


class TestServedValues:
    """A ``[full, delta]`` store read back row for row, type for type."""

    N = 12  # sources: 66 possible pairs, 50 observed in the full snapshot
    LABELS = {
        "sources": [f"S{i}" for i in range(N)],
        "items": [f"I{i}" for i in range(10)],
        "values": [f"v{i}" for i in range(6)],
    }

    @pytest.fixture()
    def chain(self, tmp_path):
        """Returns ``(store_dir, pairs, items)``: the state the chain serves."""
        rng = np.random.default_rng(7)
        table = _random_table(self.N, seed=7)
        base_rows = np.sort(rng.choice(len(table), 50, replace=False))
        base = table.take(base_rows)
        # The delta re-scores and flips a fifth of the rows, removes four
        # and adds three: ``pairs`` is ``table`` with those edits applied.
        moved = np.zeros(len(table), dtype=bool)
        moved[base_rows] = rng.random(len(base)) < 0.2
        bump = np.where(moved, 1.0, 0.0)
        edited = replace(
            _rescored(table, table.c_fwd + bump, table.c_bwd + bump),
            copying=table.copying ^ moved,
        )
        removed = rng.choice(base.keys, 4, replace=False)
        fresh = np.setdiff1d(table.keys, base.keys)[:3]
        served = np.isin(table.keys, base.keys) & ~np.isin(table.keys, removed)
        pairs = edited.take(served | np.isin(table.keys, fresh))
        upserts = edited.take((moved & served) | np.isin(table.keys, fresh))

        base_items = _items(
            [0, 1, 2, 4, 7], [0, 1, 2, 3, 4], [0.9, 0.5, 0.25, 1.0, 0.75],
            [[0, 3, 5], [1], [2, 4], [6, 7, 8, 9], [11]],
        )
        # Item 2 flips its truth, item 4 goes, item 9 arrives with no supporter.
        item_upserts = _items([2, 9], [5, 1], [0.625, 0.125], [[0, 1, 10], []])
        items = _items(
            [0, 1, 2, 7, 9], [0, 1, 5, 4, 1], [0.9, 0.5, 0.625, 0.75, 0.125],
            [[0, 3, 5], [1], [0, 1, 10], [11], []],
        )

        def truths(table: ItemRows) -> dict:
            return {"truths": [self.LABELS["values"][v] for v in table.truth.tolist()]}

        store = VerdictStore(tmp_path)
        names = {"sources": self.LABELS["sources"], "items": self.LABELS["items"]}
        sid = store.write(
            _snapshot(base, base_items, self.N, labels={**names, **truths(base_items)})
        )
        store.write(_snapshot(
            upserts, item_upserts, self.N, base_id=sid, removed_pairs=removed,
            removed_items=np.array([4]), merged=pairs, labels=truths(item_upserts),
        ))
        kinds = [s.meta["kind"] for s in store.load_chain(store.current_id())]
        assert kinds == ["full", "delta"] and len(upserts) > 3
        return tmp_path, pairs, items

    @staticmethod
    def _expected_verdict(pairs: PairColumns, row: int, sid: int) -> tuple:
        s1, s2 = decode_pairs(pairs.keys[row : row + 1])[0]
        columns = Verdict._fields[2:-1]  # copying ... decision_pos
        return (s1, s2, *(getattr(pairs, c)[row].item() for c in columns), sid)

    def test_every_published_pair_in_both_orders(self, chain):
        path, pairs, _ = chain
        reader = VerdictReader(path)
        for row, (s1, s2) in enumerate(decode_pairs(pairs.keys)):
            expected = self._expected_verdict(pairs, row, reader.snapshot_id)
            for a, b in ((s1, s2), (s2, s1)):
                verdict = reader.get_verdict(a, b)
                assert type(verdict) is Verdict and verdict == expected
                assert tuple(map(type, verdict)) == _VERDICT_TYPES

    def test_unobserved_pairs_and_errors(self, chain):
        path, pairs, _ = chain
        reader = VerdictReader(path)
        published = set(decode_pairs(pairs.keys))
        unobserved = [
            (a, b) for a in range(self.N) for b in range(a + 1, self.N)
            if (a, b) not in published
        ]
        assert len(unobserved) == 66 - len(pairs) > 0
        for a, b in unobserved:
            assert reader.get_verdict(a, b) is None
            assert reader.get_verdict(b, a) is None
        for s1, s2, bad in ((3, 3, None), (0, self.N, self.N), (-1, 1, -1),
                            (2**31, 0, 2**31)):
            message = (
                "a pair needs two distinct sources" if bad is None
                else f"source {bad} out of range for a {self.N}-source store"
            )
            with pytest.raises(ValueError, match=f"^{message}$"):
                reader.get_verdict(s1, s2)

    def test_truths_by_id_and_by_name(self, chain):
        path, _, items = chain
        reader = VerdictReader(path)
        sid = reader.snapshot_id
        for row, item in enumerate(items.keys.tolist()):
            value = items.truth[row].item()
            start, end = items.prov_offsets[row : row + 2].tolist()
            expected = (
                item, self.LABELS["items"][item], value, self.LABELS["values"][value],
                items.probability[row].item(),
                tuple(items.prov_sources[start:end].tolist()), sid,
            )
            for query in (item, self.LABELS["items"][item]):
                truth = reader.get_truth(query)
                assert type(truth) is Truth and truth == expected
                assert tuple(map(type, truth)) == (int, str, int, str, float, tuple, int)
                assert all(type(s) is int for s in truth.supporters)
        assert reader.get_truth(9).supporters == ()
        assert reader.get_truth(2).value_label == "v5"  # the delta's truth
        for missing in (4, "I4", 3, -1, 10**12, "no-such-item"):
            assert reader.get_truth(missing) is None

    def test_a_snapshot_labels_the_truths_it_writes(self, chain):
        """A full stores the name tables and its truths' labels, the delta
        its upserted truths' labels; no file stores the value table."""
        path, _, _ = chain
        store = VerdictStore(path)
        full, delta = (snapshot.meta for snapshot in store.load_chain(store.current_id()))
        assert full["labels"] == {
            "sources": self.LABELS["sources"],
            "items": self.LABELS["items"],
            "truths": ["v0", "v1", "v2", "v3", "v4"],
        }
        assert delta["labels"] == {"truths": ["v5", "v1"]}

    def test_labels_are_read_only(self, chain):
        """``labels`` is one read-only mapping of tuples per view: a caller
        cannot change what a later read serves (at the parent, after
        ``reader.labels["values"][5] = "CLOBBERED"`` an uncached truth of
        value 5 was served with that label)."""
        path, _, _ = chain
        reader = VerdictReader(path)
        labels = reader.labels
        assert reader.labels is labels
        assert dict(labels) == {
            "sources": tuple(self.LABELS["sources"]),
            "items": tuple(self.LABELS["items"]),
        }
        with pytest.raises(TypeError):
            labels["items"] = ["CLOBBERED"] * 10
        with pytest.raises(TypeError):
            labels["items"][2] = "CLOBBERED"
        truth = reader.get_truth("I2")
        assert (truth.item_name, truth.value_label) == ("I2", "v5")
        assert reader.top_copiers(1)[0].source_name in labels["sources"]

    def test_an_unlabelled_store_refuses_names(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.write(_snapshot(_random_table(4, seed=1), _items([0], [0], [1.0], [[2]]), 4))
        reader = VerdictReader(store)
        message = "store was published without labels; query items by id"
        with pytest.raises(ServingError, match=f"^{message}$"):
            reader.get_truth("I0")
        assert reader.get_truth(0) == (0, None, 0, None, 1.0, (2,), reader.snapshot_id)

    def test_a_loaded_view_never_touches_disk(self, chain):
        """``refresh()`` merges the whole chain in memory: with every file
        of the store unlinked, the loaded view answers as before — uncached
        lookups included — and a refresh fails without dropping it."""
        path, pairs, items = chain
        reader = VerdictReader(path)
        sid = reader.snapshot_id
        observed = decode_pairs(pairs.keys)
        warm = {pair: reader.get_verdict(*pair) for pair in observed[::2]}
        top = reader.top_copiers(5)
        for file in path.iterdir():
            file.unlink()
        assert list(path.iterdir()) == []
        for row, pair in enumerate(observed):
            verdict = reader.get_verdict(*pair)
            assert verdict == self._expected_verdict(pairs, row, sid)
            if pair in warm:
                assert verdict is warm[pair]
        for row, item in enumerate(items.keys.tolist()):
            assert reader.get_truth(item).probability == items.probability[row]
        assert reader.top_copiers(5) == top
        with pytest.raises(ServingError, match="no published snapshot"):
            reader.refresh()
        assert reader.snapshot_id == sid
        assert reader.get_verdict(*observed[1]) == self._expected_verdict(pairs, 1, sid)


# ----------------------------------------------------------------------
# Concurrent refresh: every read consistent with its snapshot version
# ----------------------------------------------------------------------
class TestConcurrentRefresh:
    def _rounds(self, params, n_sources, n_rounds=8, seed=5):
        rng = random.Random(seed)
        all_keys = [
            (i, j) for i in range(n_sources) for j in range(i + 1, n_sources)
        ]
        current = {
            key: _decision(params, rng.uniform(-5, 8), rng.uniform(-5, 8))
            for key in rng.sample(all_keys, 20)
        }
        rounds = [dict(current)]
        for _ in range(n_rounds - 1):
            for key in rng.sample(sorted(current), 5):
                current[key] = _decision(
                    params, rng.uniform(-5, 8), rng.uniform(-5, 8)
                )
            rounds.append(dict(current))
        return all_keys, rounds

    def test_reads_verify_against_their_snapshot(
        self, tmp_path, example, params
    ):
        probs = [0.9] * len(example.value_item)
        n = example.n_sources
        all_keys, rounds = self._rounds(params, n)

        # Dry run into a scratch store to learn the exact per-snapshot
        # state (ids are sequential, so the live store reproduces them).
        scratch = SnapshotPublisher(tmp_path / "scratch", example, params)
        states: dict[int, dict[tuple[int, int], tuple[bool, float]]] = {}
        for round_no, decisions in enumerate(rounds):
            sid = scratch.publish_round(round_no, _result(decisions, n), probs)
            served = VerdictReader(tmp_path / "scratch")
            states[sid] = {
                key: (verdict.copying, verdict.c_fwd)
                for key in all_keys
                if (verdict := served.get_verdict(*key)) is not None
            }
            assert states[sid].keys() == decisions.keys()
        last_sid = max(states)

        live = SnapshotPublisher(tmp_path / "live", example, params)
        live.publish_round(0, _result(rounds[0], n), probs)
        reader = VerdictReader(tmp_path / "live")
        errors: list[str] = []
        seen_ids: set[int] = set()

        def writer():
            for round_no, decisions in enumerate(rounds[1:], start=1):
                time.sleep(0.003)
                live.publish_round(round_no, _result(decisions, n), probs)

        def read_loop():
            i = 0
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if i % 7 == 0:
                    reader.refresh()
                key = s1, s2 = all_keys[i % len(all_keys)]
                i += 1
                verdict = reader.get_verdict(s1, s2)
                if verdict is None:
                    if key in states[last_sid]:
                        errors.append(f"missing verdict for observed pair {key}")
                        return
                    continue
                seen_ids.add(verdict.snapshot_id)
                expected = states[verdict.snapshot_id].get(key)
                if expected is None:
                    errors.append(
                        f"pair {key} served but absent from snapshot "
                        f"{verdict.snapshot_id}"
                    )
                    return
                if (verdict.copying, verdict.c_fwd) != expected:
                    errors.append(
                        f"inconsistent read of pair {key} at snapshot "
                        f"{verdict.snapshot_id}: got "
                        f"{(verdict.copying, verdict.c_fwd)}, expected {expected}"
                    )
                    return
                if reader.snapshot_id == last_sid and i > 3 * len(all_keys):
                    return

        write_thread = threading.Thread(target=writer)
        read_thread = threading.Thread(target=read_loop)
        write_thread.start()
        read_thread.start()
        write_thread.join()
        read_thread.join()
        assert errors == []
        assert reader.refresh() is False or reader.snapshot_id == last_sid
        reader.refresh()
        assert reader.snapshot_id == last_sid


# ----------------------------------------------------------------------
# INCREMENTAL deltas rewrite exactly the re-opened/rebuilt pairs
# ----------------------------------------------------------------------
class TestIncrementalDeltas:
    def test_delta_rows_equal_changed_pairs(self, tmp_path, world):
        params = CopyParams()
        result, detections = fuse_keeping_rounds(
            world.dataset,
            params,
            IncrementalDetector(params),
            config=FusionConfig(max_rounds=6),
            snapshot_store=tmp_path,
        )
        assert result.snapshot_ids  # one per round
        store = VerdictStore(tmp_path)
        previous = None
        for detection, sid in zip(detections, result.snapshot_ids, strict=True):
            meta, pairs = store.load(sid)[:2]
            if meta["kind"] == "delta":
                # Every delta of this run is a patch round's: the rows
                # are the reported pairs plus any newly opened one.
                reported = detection.changed_pairs
                assert reported is not None
                opened = set(detection.decisions) - set(previous.decisions)
                assert decode_pairs(pairs.keys) == sorted(reported | opened)
            previous = detection
        # Later rounds change few pairs, so real deltas must appear.
        kinds = [store.load(sid)[0]["kind"] for sid in result.snapshot_ids]
        assert "delta" in kinds

    def test_changed_pairs_excludes_pass1_confirmations(self, world):
        params = CopyParams()
        detector = IncrementalDetector(params)
        result = run_fusion(
            world.dataset,
            params,
            detector=detector,
            config=FusionConfig(max_rounds=6),
        )
        last = result.final_detection()
        assert last.changed_pairs is not None
        assert set(last.changed_pairs) <= set(last.decisions)
        # The whole point: most pairs re-confirm in pass 1 and stay out.
        assert len(last.changed_pairs) < len(last.decisions)


# ----------------------------------------------------------------------
# A file stores the scores; the key and posteriors are derived on load
# ----------------------------------------------------------------------
class TestDerivedColumns:
    @pytest.mark.parametrize(
        "backend, method",
        [("python", "pairwise"), ("numpy", "hybrid"), ("numpy", "incremental"),
         ("numpy", "index")],
    )
    def test_a_full_loads_as_the_rounds_table(self, tmp_path, world, backend, method):
        """Every round's table, published as a full, loads back exactly:
        keys, the five floats bit for bit, flags and positions — so every
        producer's posteriors are Eq. (2) of its own scores (INCREMENTAL's
        patch rounds, whose pass-1 scores are estimates, included)."""
        from repro.core import SingleRoundDetector

        params = CopyParams(backend=backend)
        detector = (
            IncrementalDetector(params) if method == "incremental"
            else SingleRoundDetector(params, method)
        )
        fusion, detections = fuse_keeping_rounds(
            world.dataset, params, detector, FusionConfig(max_rounds=4, min_rounds=4)
        )
        store = VerdictStore(tmp_path)
        for detection in detections:
            table = detection.columns()
            sid = store.write(
                _snapshot(table, n_sources=world.dataset.n_sources, alpha=params.alpha)
            )
            meta, loaded = store.load(sid)[:2]
            assert meta["alpha"] == params.alpha
            for name in ("keys", *PAIR_FLOAT_COLUMNS, "copying", "early", "decision_pos"):
                want, got = getattr(table, name), getattr(loaded, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            stored_meta, stored = read_snapshot_file(store.snapshot_path(sid))
            assert stored_meta["alpha"] == params.alpha
            assert [name for name in stored if name.startswith("pair_")] == [
                "pair_s1", "pair_s2", "pair_c_fwd", "pair_c_bwd", "pair_flags",
                "pair_decision_pos",
            ]
        if method == "incremental":
            assert fusion.final_detection().columns().early.any()

    def test_what_the_derivation_needs_is_checked_at_open(self, tmp_path, params):
        """A stored pair column missing or ragged, no valid ``alpha``, or
        an item or copier column missing: a ``ServingError`` naming the
        file, never a served guess."""
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions(
            {(0, 1): _decision(params, 5.0, 4.0), (1, 2): _decision(params, -3.0, 2.0)}
        )
        sid = store.write(_snapshot(pairs, alpha=params.alpha))
        path = store.snapshot_path(sid)
        meta, arrays = read_snapshot_file(path)
        for edit_meta, edit, fragment in (
            ({}, {"pair_s2": None}, "snapshot is missing pair column 'pair_s2'"),
            ({}, {"pair_s1": arrays["pair_s1"][:1]}, "disagree in length \\(\\[1, 2\\]\\)"),
            ({"alpha": None}, {}, "records no valid alpha"),
            ({"alpha": 0.7}, {}, "alpha must be in \\(0, 0.5\\), got 0.7"),
            ({}, {"item_truth": None}, "snapshot is missing item column 'item_truth'"),
            ({}, {"copier_scores": None}, "snapshot is missing copier column 'copier_scores'"),
        ):
            kept = {**arrays, **edit}
            kept = {name: array for name, array in kept.items() if array is not None}
            path.write_bytes(encode_snapshot({**meta, **edit_meta}, kept))
            with pytest.raises(ServingError, match=fragment) as excinfo:
                store.load(store.current_id())
            assert str(path) in str(excinfo.value)

    def test_run_fusion_rejects_a_detector_under_another_alpha(self, tmp_path):
        """The store derives posteriors under ``run_fusion``'s alpha, so a
        detector scoring under another prior would be served the wrong
        posteriors: refused before the store directory exists."""
        from repro.core import SingleRoundDetector

        dataset, store = motivating_example(), tmp_path / "store"
        detector = SingleRoundDetector(CopyParams(alpha=0.2), "index")
        with pytest.raises(ValueError, match="alpha=0.2, .*params.alpha=0.1"):
            run_fusion(dataset, CopyParams(alpha=0.1), detector, snapshot_store=store)
        assert not store.exists()
        run_fusion(dataset, CopyParams(alpha=0.1), detector)  # nothing derived
        run_fusion(dataset, CopyParams(alpha=0.2), detector, snapshot_store=store)
        assert VerdictStore(store).current_id() is not None


def test_the_product_path_imports_no_masked_arrays():
    """Fusing (INDEX, HYBRID, INCREMENTAL), publishing and reading load
    no ``numpy.ma`` module: NumPy 2's plain ``np.unique`` imports it on
    its first call, ~13 ms warm and 27-33 ms cold per fresh process.
    Modules imported before the run do not count (NumPy 1 imports
    ``numpy.ma`` eagerly)."""
    import subprocess
    import sys
    from pathlib import Path

    script = """
import sys, tempfile
from repro import CopyParams, IncrementalDetector, SingleRoundDetector, run_fusion
from repro.serving import VerdictReader
from repro.synth import make_profile
dataset = make_profile("book_cs", scale=0.05, seed=11).dataset
params = CopyParams(backend="numpy")
before = set(sys.modules)
for detector in (SingleRoundDetector(params, "index"),
                 SingleRoundDetector(params, "hybrid"), IncrementalDetector(params)):
    with tempfile.TemporaryDirectory() as store:
        run_fusion(dataset, params, detector, snapshot_store=store)
        VerdictReader(store).top_copiers(3)
print(sorted(m for m in set(sys.modules) - before if m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Dense and sparse pair_layout serialize to the same store rows
# ----------------------------------------------------------------------
class TestLayoutParity:
    def test_dense_and_sparse_store_identically(self, tmp_path, world):
        dataset = world.dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        snapshots = {}
        for layout in ("dense", "sparse"):
            params = CopyParams(backend="numpy", pair_layout=layout)
            detection = detect(
                dataset, probs, accs, params, method="hybrid"
            )
            pub = SnapshotPublisher(tmp_path / layout, dataset, params)
            sid = pub.publish_round(1, detection, probs)
            snapshots[layout] = VerdictStore(tmp_path / layout).load(sid)
        dense, sparse = snapshots["dense"], snapshots["sparse"]
        assert dense.meta == sparse.meta and dense.meta["n_pairs"] > 0
        arrays_dense, arrays_sparse = (dict(snapshot_arrays(s)) for s in (dense, sparse))
        assert list(arrays_dense) == list(arrays_sparse)
        for name, arr in arrays_dense.items():
            assert np.array_equal(arr, arrays_sparse[name]), name


# ----------------------------------------------------------------------
# Pipeline hook + CLI round trip
# ----------------------------------------------------------------------
class TestPipelineHook:
    def test_run_fusion_publishes_servable_snapshots(self, tmp_path, world):
        params = CopyParams()
        result = run_fusion(
            world.dataset,
            params,
            detector=IncrementalDetector(params),
            config=FusionConfig(max_rounds=5),
            snapshot_store=tmp_path,
        )
        assert len(result.snapshot_ids) == result.n_rounds
        reader = VerdictReader(tmp_path)
        final = result.final_detection()
        served_pairs = 0
        for (s1, s2), decision in final.decisions.items():
            verdict = reader.get_verdict(s1, s2)
            assert verdict is not None
            assert verdict.copying == decision.copying
            served_pairs += 1
        assert served_pairs == reader.cache_info()["n_pairs"]
        # Fused truths match the run's chosen values.
        for item, value in result.chosen.items():
            truth = reader.get_truth(item)
            assert truth.value == value
            assert truth.probability == pytest.approx(
                result.probabilities[value]
            )

    def test_served_scores_are_exact_where_the_final_round_scored(self, tmp_path):
        """Through a full + delta chain, a pair the final round scored
        exactly serves that round's scores; one it merely re-confirmed by
        its bounds (``early``) keeps the scores of the round that last
        scored it, so only its verdict is compared."""
        dataset = make_profile("book_cs", scale=0.04, seed=7).dataset
        params = CopyParams()
        result = run_fusion(
            dataset,
            params,
            detector=IncrementalDetector(params),
            config=FusionConfig(max_rounds=8),
            snapshot_store=tmp_path,
        )
        store = VerdictStore(tmp_path)
        assert "delta" in [store.load(s)[0]["kind"] for s in result.snapshot_ids]
        reader = VerdictReader(tmp_path)
        decisions = result.final_detection().decisions
        exact = {pair: d for pair, d in decisions.items() if not d.early}
        assert 0 < len(exact) < len(decisions)
        for (s1, s2), decision in exact.items():
            verdict = reader.get_verdict(s2, s1)  # callers need not order ids
            assert verdict.copying == decision.copying
            assert verdict.c_fwd == decision.c_fwd
            assert verdict.independent == pytest.approx(
                decision.posterior.independent, abs=1e-9
            )

    def test_decision_positions_served(self, tmp_path, world):
        params = CopyParams()
        run_fusion(
            world.dataset,
            params,
            detector=IncrementalDetector(params),
            config=FusionConfig(max_rounds=3),
            snapshot_store=tmp_path,
        )
        # Round 1 runs HYBRID without bookkeeping (all positions -1);
        # the prepare round (2) builds PairBookkeeping, and its decision
        # positions must reach the published rows.
        round1, round2 = (VerdictStore(tmp_path).load(sid).pairs for sid in (1, 2))
        assert (round1.decision_pos == -1).all()
        assert (round2.decision_pos >= 0).any()
        reader = VerdictReader(tmp_path)
        pairs = reader._view.snapshot.pairs
        assert (pairs.decision_pos >= 0).any()


class TestCliServe:
    @pytest.fixture(scope="class")
    def claims_path(self, tmp_path_factory, world):
        path = tmp_path_factory.mktemp("serve") / "claims.csv"
        save_claims(world.dataset, path)
        return path

    def test_serve_snapshot_then_query(
        self, claims_path, tmp_path, capsys, world
    ):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "fuse",
                    str(claims_path),
                    "--store",
                    str(store),
                    "--method",
                    "incremental",
                    "--max-rounds",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the fusion summary first, then the table of what was published
        assert out.index("converged=") < out.index("Published")
        assert "full" in out and f"-> {store}" in out

        assert main(["query", str(store), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top copiers" in out

        source_a = world.dataset.source_names[0]
        source_b = world.dataset.source_names[1]
        assert main(["query", str(store), "--pair", source_a, source_b]) == 0
        out = capsys.readouterr().out
        assert "Verdict" in out or "never observed" in out

        item = world.dataset.item_names[0]
        assert main(["query", str(store), "--item", item]) == 0
        out = capsys.readouterr().out
        assert "Truth" in out

        assert main(["query", str(store)]) == 0
        out = capsys.readouterr().out
        assert "pair rows" in out

    def test_query_empty_store_fails_cleanly(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["query", str(empty)])

    def test_query_unknown_source_label(self, claims_path, tmp_path, capsys):
        store = tmp_path / "store2"
        main(
            [
                "fuse",
                str(claims_path),
                "--store",
                str(store),
                "--method",
                "none",
                "--max-rounds",
                "3",
            ]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit, match="unknown source"):
            main(["query", str(store), "--pair", "definitely-not-a-source", "0"])


class TestCurrentPointerAtomicity:
    def test_current_never_points_at_a_partial_file(self, tmp_path, params):
        # The snapshot file is fully written and renamed before CURRENT
        # moves, so a reader opening mid-publish always sees a complete
        # file for whatever CURRENT names.
        store = VerdictStore(tmp_path)
        decisions = {(0, 1): _decision(params, 5.0, 4.0)}
        for round_no in range(4):
            pairs = PairColumns.from_decisions(decisions)
            store.write(_snapshot(pairs, alpha=params.alpha))
            current = store.current_id()
            pointer = json.loads((tmp_path / "CURRENT").read_text())
            assert pointer["snapshot_id"] == current
            meta = store.load(current).meta  # decodes cleanly, CRC included
            assert meta["snapshot_id"] == current

    def test_a_snapshot_is_durable_before_current_names_it(
        self, tmp_path, params, monkeypatch
    ):
        """One ``os``-level shim records a publish's fsyncs and renames:
        the snapshot file is fsynced before its rename and the directory
        after it, then the same for ``CURRENT.tmp`` and the pointer swap
        (at the parent nothing was fsynced)."""
        import os

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        def replace(src, dst):
            events.append((os.path.basename(src), os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        for _ in range(2):  # the second publish replaces an existing CURRENT
            events.clear()
            snap = store.snapshot_path(
                store.write(_snapshot(pairs, alpha=params.alpha))
            )
            # A renamed file keeps its inode: name each fsync after the fact.
            names = {
                path.stat().st_ino: label
                for path, label in (
                    (tmp_path, "dir"), (snap, snap.name), (tmp_path / "CURRENT", "CURRENT")
                )
            }
            assert [names.get(e, e) if isinstance(e, int) else e for e in events] == [
                snap.name,
                (snap.name + ".tmp", snap.name),
                "dir",
                "CURRENT",
                ("CURRENT.tmp", "CURRENT"),
                "dir",
            ]
