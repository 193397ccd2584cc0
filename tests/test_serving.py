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
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core import CopyParams, IncrementalDetector, detect, posterior
from repro.core.pairspace import decode_pairs
from repro.core.result import (
    PAIR_FLOAT_COLUMNS,
    DecisionView,
    DetectionResult,
    PairColumns,
    PairDecision,
)
from repro.data import DatasetBuilder, save_claims
from repro.fusion import FusionConfig, run_fusion, vote_probabilities
from repro.serving import (
    FORMAT_VERSION,
    ItemRows,
    ServingError,
    SnapshotPublisher,
    Truth,
    Verdict,
    VerdictReader,
    VerdictStore,
    decode_snapshot,
    encode_snapshot,
    read_snapshot_file,
)
from repro.serving.store import SCORE_TOLERANCE, pairs_from_arrays
from repro.synth import make_profile


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
        sid = store.write_full(pairs, ItemRows.empty(), n_sources=3, method="t")
        assert store.current_id() == sid
        meta, arrays = store.load(sid)
        assert meta["kind"] == "full"
        assert meta["n_sources"] == 3
        back = pairs_from_arrays(arrays, store.snapshot_path(sid))
        assert back.keys.tolist() == [1]  # (0 << 32) | 1
        assert back.c_fwd[0] == 5.0

    def test_truncated_store_file_is_a_serving_error(self, tmp_path, params):
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        sid = store.write_full(pairs, ItemRows.empty(), n_sources=3)
        path = store.snapshot_path(sid)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ServingError, match="truncated"):
            VerdictReader(store)

    def test_newer_versioned_snapshot_in_store(self, tmp_path, params):
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        sid = store.write_full(pairs, ItemRows.empty(), n_sources=3)
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
        # A version-1 store holds stride keys this build would misread:
        # refused by name, with the remedy (a store is derived data).
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions({(0, 1): _decision(params, 5.0, 4.0)})
        path = store.snapshot_path(store.write_full(pairs, ItemRows.empty(), 3))
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", FORMAT_VERSION - 1) + data[8:])
        with pytest.raises(ServingError, match="older than this build.*re-publish"):
            VerdictReader(store)

    def _rewritten(self, tmp_path, params, edit):
        """A one-snapshot store whose file was re-encoded after ``edit``
        changed its decoded arrays; returns ``(store, path)``."""
        store = VerdictStore(tmp_path)
        pairs = PairColumns.from_decisions(
            {(0, 1): _decision(params, 5.0, 4.0), (1, 2): _decision(params, -3.0, 2.0)}
        )
        path = store.snapshot_path(store.write_full(pairs, ItemRows.empty(), 3))
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
            arrays["pair_backward"] = arrays["pair_backward"][:1]

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
        pub = SnapshotPublisher(tmp_path, example)
        probs = [0.9] * len(example.value_item)
        for round_no, position in ((1, 3), (2, 7)):
            result = _result(decisions, example.n_sources)
            result.decision_pos = dict.fromkeys(moved, position)
            sid = pub.publish_round(round_no, result, probs)
        meta, arrays = VerdictStore(tmp_path).load(sid)
        assert (meta["kind"], meta["n_pairs"]) == ("delta", len(moved))
        assert decode_pairs(arrays["pair_keys"]) == moved
        assert arrays["pair_decision_pos"].tolist() == [7] * len(moved)
        reader = VerdictReader(tmp_path)
        for pair in decisions:
            want = 7 if pair in moved else -1
            assert reader.get_verdict(*pair).decision_pos == want

    def test_delta_chain_with_missing_base(self, tmp_path, example, params):
        pub = SnapshotPublisher(tmp_path, example)
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
        pub = SnapshotPublisher(tmp_path, _flat_world(3))
        pub.publish_round(1, _result(base, 3), [0.9])
        pub.rebind(_flat_world(5))
        grown = {**base, (2, 4): _decision(params, 7.0, 2.0)}
        result = _result(grown, 5)
        result.changed_pairs = {(2, 4)}
        sid = pub.publish_round(2, result, [0.9])

        meta, arrays = VerdictStore(tmp_path).load(sid)
        assert (meta["kind"], meta["base_id"], meta["n_sources"]) == ("delta", 1, 5)
        assert decode_pairs(arrays["pair_keys"]) == [(2, 4)]
        reader = VerdictReader(tmp_path)
        assert reader.n_sources == 5
        assert reader.labels["sources"] == [f"S{i}" for i in range(5)]
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
        ids = [store.write_full(pairs, ItemRows.empty(), n_sources=3) for _ in range(3)]
        assert ids == [5001, 5002, 5003]  # above the orphans beyond CURRENT
        assert globs == ["snap-*.rvs"]
        # A re-opened store lists once more and keeps counting upward.
        reopened = VerdictStore(tmp_path)
        ids.append(reopened.write_full(pairs, ItemRows.empty(), n_sources=3))
        ids.append(
            reopened.write_delta(
                ids[-1], pairs, pairs.keys[:0], ItemRows.empty(), pairs.keys[:0],
                pairs, n_sources=3,
            )
        )
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
    floats = [rng.uniform(-9.0, 9.0, n) for _ in range(2)]
    floats += [rng.uniform(0.0, 1.0, n) for _ in range(3)]
    return PairColumns(
        (s1.astype(np.int64) << 32) | s2,
        *floats,
        copying=rng.random(n) < 0.3,
        early=rng.random(n) < 0.5,
        decision_pos=rng.integers(-1, 40, n),
    )


def _publish(publisher, round_no: int, table: PairColumns) -> dict:
    n_sources = publisher.dataset.n_sources
    result = DetectionResult("test", n_sources, DecisionView(table))
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
#: ``test_a_rewrite_round_is_the_rounds_table``, as a840957 wrote it
#: (through ``pairs.take`` + ``merge_pair_rows``).
REWRITE_STORE_SHA256 = "344da387b456fc8f80130fb222435d218fd2867911d55351c90442013b37cd35"


class TestPublishingContract:
    N = 12  # 66 pairs

    def test_a_flip_inside_the_tolerance_is_republished(self, tmp_path):
        """(a) One verdict, one ``early`` bit and one position change on
        rows whose scores moved 1e-9: exactly those rows are re-published."""
        table = _random_table(self.N, seed=1)
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N))
        assert _publish(publisher, 1, table)["kind"] == "full"
        rows = [5, 17, 40]
        nudge = np.zeros(len(table))
        nudge[rows] = 1e-9
        copying, early, pos = table.copying.copy(), table.early.copy(), table.decision_pos.copy()
        copying[5] ^= True
        early[17] ^= True
        pos[40] += 1
        moved = replace(
            table,
            **{name: getattr(table, name) + nudge for name in PAIR_FLOAT_COLUMNS},
            copying=copying, early=early, decision_pos=pos,
        )
        meta = _publish(publisher, 2, moved)
        assert (meta["kind"], meta["n_pairs"]) == ("delta", 3)
        arrays = publisher.store.load(meta["snapshot_id"])[1]
        assert arrays["pair_keys"].tolist() == table.keys[rows].tolist()
        _assert_serves(_served(tmp_path), moved)

    def test_drift_is_bounded_against_the_published_value(self, tmp_path):
        """(b) Ten rounds each add 0.4e-6 to one score: the row is
        re-published when it sits past the tolerance from what the store
        *holds* (rounds 3, 6, 9), never accumulating — and at no round
        does the reader serve a score further than the tolerance from
        the round's (at the parent: re-published every round)."""
        table = _random_table(self.N, seed=2)
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N))
        _publish(publisher, 0, table)
        republished = []
        for step in range(1, 11):
            c_fwd = table.c_fwd.copy()
            c_fwd[7] += step * 0.4e-6
            current = replace(table, c_fwd=c_fwd)
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
            table,
            **{name: getattr(table, name) + jitter * rng.uniform(0.5, 1.0, n)
               for name in PAIR_FLOAT_COLUMNS},
            copying=table.copying ^ flipped,
            decision_pos=table.decision_pos + shifted,
        )
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N))
        _publish(publisher, 1, table)
        meta = _publish(publisher, 2, current)
        must_go = loud | flipped | shifted
        assert 0 < must_go.sum() and (must_go | quiet).sum() < 0.6 * n
        chain = publisher.store.load_chain(meta["snapshot_id"])
        assert [m["kind"] for m, _ in chain] == ["full", "delta"]
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
        moved = replace(
            moved, **{name: getattr(moved, name) + 0.5 for name in PAIR_FLOAT_COLUMNS}
        )
        publisher = SnapshotPublisher(tmp_path, _flat_world(self.N))
        _publish(publisher, 1, table)
        meta = _publish(publisher, 2, moved)
        assert (meta["kind"], meta["n_pairs"], meta["base_id"]) == ("full", len(moved), None)
        arrays = publisher.store.load(meta["snapshot_id"])[1]
        _assert_tables_identical(pairs_from_arrays(arrays, "memory"), moved)
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
        pub = SnapshotPublisher(tmp_path, example)
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
        ids=np.asarray(ids, dtype=np.int64),
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
            table,
            **{name: getattr(table, name) + bump for name in PAIR_FLOAT_COLUMNS},
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

        store = VerdictStore(tmp_path)
        sid = store.write_full(base, base_items, self.N, labels=self.LABELS)
        store.write_delta(
            sid, upserts, removed, item_upserts, np.array([4]), pairs, self.N
        )
        kinds = [meta["kind"] for meta, _ in store.load_chain(store.current_id())]
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
        for row, item in enumerate(items.ids.tolist()):
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

    def test_an_unlabelled_store_refuses_names(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.write_full(_random_table(4, seed=1), _items([0], [0], [1.0], [[2]]), 4)
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
        for row, item in enumerate(items.ids.tolist()):
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
        scratch = SnapshotPublisher(tmp_path / "scratch", example)
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

        live = SnapshotPublisher(tmp_path / "live", example)
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
        detector = IncrementalDetector(params)
        result = run_fusion(
            world.dataset,
            params,
            detector=detector,
            config=FusionConfig(max_rounds=6),
            snapshot_store=tmp_path,
        )
        assert result.snapshot_ids  # one per round
        store = VerdictStore(tmp_path)
        previous = None
        for record, sid in zip(result.rounds, result.snapshot_ids):
            meta, arrays = store.load(sid)
            if meta["kind"] == "delta":
                # Every delta of this run is a patch round's: the rows
                # are the reported pairs plus any newly opened one.
                reported = record.detection.changed_pairs
                assert reported is not None
                opened = set(record.detection.decisions) - set(previous.decisions)
                assert decode_pairs(arrays["pair_keys"]) == sorted(reported | opened)
            previous = record.detection
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
        last = result.rounds[-1].detection
        assert last.changed_pairs is not None
        assert set(last.changed_pairs) <= set(last.decisions)
        # The whole point: most pairs re-confirm in pass 1 and stay out.
        assert len(last.changed_pairs) < len(last.decisions)


# ----------------------------------------------------------------------
# Dense and sparse pair_layout serialize to the same store rows
# ----------------------------------------------------------------------
class TestLayoutParity:
    def test_dense_and_sparse_store_identically(self, tmp_path, world):
        dataset = world.dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        stores = {}
        for layout in ("dense", "sparse"):
            params = CopyParams(backend="numpy", pair_layout=layout)
            detection = detect(
                dataset, probs, accs, params, method="hybrid"
            )
            pub = SnapshotPublisher(tmp_path / layout, dataset)
            sid = pub.publish_round(1, detection, probs)
            stores[layout] = VerdictStore(tmp_path / layout).load(sid)
        meta_dense, arrays_dense = stores["dense"]
        meta_sparse, arrays_sparse = stores["sparse"]
        assert meta_dense["n_pairs"] == meta_sparse["n_pairs"] > 0
        assert set(arrays_dense) == set(arrays_sparse)
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
        _, round1 = VerdictStore(tmp_path).load(1)
        assert (round1["pair_decision_pos"] == -1).all()
        _, round2 = VerdictStore(tmp_path).load(2)
        assert (round2["pair_decision_pos"] >= 0).any()
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
            store.write_full(pairs, ItemRows.empty(), n_sources=3)
            current = store.current_id()
            pointer = json.loads((tmp_path / "CURRENT").read_text())
            assert pointer["snapshot_id"] == current
            meta, _ = store.load(current)  # decodes cleanly, CRC included
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
                store.write_full(pairs, ItemRows.empty(), n_sources=3)
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
