"""The columnar verdict table and the read-only view over it.

Under ``backend="numpy"`` every producer hands back one sorted-key
:class:`~repro.core.result.PairColumns` table; ``DetectionResult.decisions``
is a :class:`~repro.core.result.DecisionView` that builds a
``PairDecision`` only when someone reads one.  These tests pin that
contract: dict semantics, the key-aliasing guard, zero materialisation on
the fuse-and-publish path, the table's round trip through the snapshot
arrays, snapshots byte-identical to the ones the three-table design
wrote, and the store's pair diff against the per-pair dict comparison it
replaced.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.generators import RandomChooser, large_sparse_world
from repro.core import (
    CopyParams,
    CopyPosterior,
    DetectionResult,
    IncrementalDetector,
    PairDecision,
    SingleRoundDetector,
    detect,
    detect_hybrid,
)
from repro.core.pairspace import ID_LIMIT, decode_pairs, pair_key
from repro.core.result import PAIR_COLUMNS, DecisionView, PairColumns
from repro.fusion import run_fusion
from repro.serving.store import (
    SCORE_TOLERANCE,
    SnapshotPublisher,
    VerdictStore,
    pair_arrays,
    pair_delta,
    pairs_from_arrays,
)
from tests.strategies import worlds

NUMPY = CopyParams(backend="numpy")


def _decision(seed: float, copying: bool = False, early: bool = False):
    return PairDecision(
        c_fwd=seed,
        c_bwd=-seed,
        posterior=CopyPosterior(0.25, 0.5 + seed / 100, 0.25 - seed / 100),
        copying=copying,
        early=early,
    )


def _columnar(decisions: dict, n_sources: int, **kwargs) -> DetectionResult:
    """A result backed by a column table holding ``decisions``."""
    columns = PairColumns.from_decisions(decisions)
    return DetectionResult("test", n_sources, DecisionView(columns), **kwargs)


def _sparse_world(seed: int = 0):
    return large_sparse_world(
        RandomChooser(random.Random(seed)), n_sources=30, n_items=12
    ).materialize()


# ----------------------------------------------------------------------
# The view is a dict to every reader
# ----------------------------------------------------------------------
class TestMappingSemantics:
    @pytest.fixture(scope="class")
    def result(self):
        dataset, probs, accs = _sparse_world()
        return detect(dataset, probs, accs, NUMPY, method="hybrid")

    def test_equals_its_dict_both_ways(self, result):
        as_dict = dict(result.decisions)
        assert isinstance(result.decisions, DecisionView)
        assert result.decisions == as_dict
        assert as_dict == result.decisions
        assert len(result.decisions) == len(as_dict) > 0

    def test_matches_the_python_oracle(self, result):
        dataset, probs, accs = _sparse_world()
        oracle = detect(dataset, probs, accs, CopyParams(backend="python"),
                        method="hybrid")
        assert isinstance(oracle.decisions, dict)
        assert result.decisions == oracle.decisions
        assert result.copying_pairs() == oracle.copying_pairs()

    def test_iterates_in_ascending_key_order(self, result):
        pairs = list(result.decisions)
        assert pairs == sorted(pairs)
        assert all(type(s) is int for pair in pairs for s in pair)
        assert [pair for pair, _ in result.decisions.items()] == pairs
        assert list(result.decisions.keys()) == pairs

    def test_membership_and_get(self, result):
        pair = next(iter(result.decisions))
        assert pair in result.decisions
        assert result.decisions.get(pair) is result.decisions[pair]
        assert result.decision_for(pair[1], pair[0]) == result.decisions[pair]
        missing = (0, 0)
        assert missing not in result.decisions
        assert result.decisions.get(missing) is None
        with pytest.raises(KeyError):
            result.decisions[missing]

    def test_values_are_plain_python(self, result):
        decision = next(iter(result.decisions.values()))
        assert type(decision.c_fwd) is float
        assert type(decision.copying) is bool and type(decision.early) is bool
        assert isinstance(decision.posterior, CopyPosterior)
        assert decision.copying == (decision.posterior.independent <= 0.5) or decision.early

    def test_read_only(self, result):
        pair = next(iter(result.decisions))
        with pytest.raises(TypeError):
            result.decisions[pair] = None
        with pytest.raises(TypeError):
            hash(result.decisions)

    def test_copying_pairs_reads_columns_only(self):
        dataset, probs, accs = _sparse_world(1)
        result = detect(dataset, probs, accs, NUMPY, method="index")
        expected = {p for p, d in dict(result.decisions).items() if d.copying}
        fresh = detect(dataset, probs, accs, NUMPY, method="index")
        assert fresh.copying_pairs() == expected
        assert fresh.decisions.materialized == 0

    def test_pickle_round_trip(self, result):
        result.decisions[next(iter(result.decisions))]  # warm the memo
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert isinstance(clone.decisions, DecisionView)
        assert clone.decisions.materialized == 0
        assert clone.decisions == dict(result.decisions)
        assert clone.cost == result.cost

    def test_columns_accessor(self, result):
        assert result.columns() is result.decisions.columns
        as_dict = replace(result, decisions=dict(result.decisions))
        built = as_dict.columns()
        assert as_dict.columns() is built  # cached
        for name in ("keys",) + PAIR_COLUMNS:
            np.testing.assert_array_equal(
                getattr(built, name), getattr(result.columns(), name)
            )
            assert getattr(built, name).dtype == getattr(result.columns(), name).dtype


# ----------------------------------------------------------------------
# A lookup must never answer with a neighbour's verdict
# ----------------------------------------------------------------------
class TestKeyAliasing:
    def test_out_of_range_ids_are_not_observed(self):
        # Ids that would spill into the other id's bits: with Python
        # ints key(0, 2**32 + 2) and key(2, -2**32 + 2) both equal
        # key(1, 2); the first five aliased it under the stride key.
        result = _columnar({(1, 2): _decision(1.0, copying=True)}, 4)
        view = result.decisions
        assert view[(1, 2)].copying
        for alias in [(0, 6), (-1, 10), (2, -2), (6, 0), (1, 6),
                      (0, 2**32 + 2), (2, -(2**32) + 2), (1, 2**32 + 2)]:
            assert alias not in view
            assert view.get(alias) is None
            with pytest.raises(KeyError):
                view[alias]
            assert result.decision_for(*alias) is None
            assert result.copy_probability(*alias) == 0.0
            assert result.copy_probability(*alias[::-1]) == 0.0

    def test_unordered_and_malformed_keys(self):
        result = _columnar({(1, 2): _decision(1.0)}, 4)
        view = result.decisions
        # The mapping is keyed by sorted pairs, exactly like the dict ...
        assert (2, 1) not in view and view.get((2, 1)) is None
        # ... while the any-order accessors sort first.
        assert result.decision_for(2, 1) == view[(1, 2)]
        assert result.copy_probability(2, 1) == view[(1, 2)].posterior.backward
        for junk in [(1, 1), (1,), (1, 2, 3), "12", 6, None, (1.0, 2.0), ("1", "2")]:
            assert junk not in view
            assert view.get(junk) is None

    def test_ids_beyond_two_pow_sixteen_do_not_wrap(self):
        # Both the table's keys and a lookup fed NumPy int32 ids must
        # stay exact up to the codec's limit: ``int32 << 32`` would wrap.
        top = ID_LIMIT - 1
        decisions = {
            (top - 1, top): _decision(0.5),
            (65_536, 69_999): _decision(1.0, copying=True),
            (3, 65_537): _decision(2.0),
            (0, top): _decision(4.0),
            (0, 1): _decision(3.0),
        }
        result = _columnar(decisions, ID_LIMIT)
        keys = result.columns().keys
        assert keys.dtype == np.int64
        assert keys.tolist() == sorted(pair_key(s1, s2) for s1, s2 in decisions)
        assert list(result.decisions) == sorted(decisions)
        assert result.decisions == decisions
        for s1, s2 in decisions:
            got = result.decisions[(np.int32(s1), np.int32(s2))]
            assert got == decisions[(s1, s2)]
        assert result.copying_pairs() == {(65_536, 69_999)}
        # Ids at or past the limit have no key; they are never answered
        # with the row an int64 wrap would land on.
        assert result.decision_for(0, ID_LIMIT) is None
        assert result.decision_for(top, 2**32 + top) is None
        assert result.copy_probability(2**32 + top, top - 1) == 0.0
        assert result.decisions.get((top - 1 - 2**31, top)) is None


# ----------------------------------------------------------------------
# (a) fuse + publish never builds a PairDecision
# ----------------------------------------------------------------------
PRODUCERS = {
    "hybrid": dict(method="hybrid"),
    "bound+": dict(method="bound+"),
    "index": dict(method="index"),
    "pairwise": dict(method="pairwise"),
    "hybrid-partitioned": dict(method="hybrid", n_partitions=2, reduce="tree"),
    "index-partitioned": dict(method="index", n_partitions=3),
}


class TestNoMaterialisationOnTheProductPath:
    @pytest.mark.parametrize("producer", PRODUCERS)
    def test_run_fusion_with_store_builds_no_decisions(self, producer, tmp_path):
        dataset, _, _ = _sparse_world()
        params = CopyParams(backend="numpy", pair_layout="sparse")
        detector = SingleRoundDetector(params, **PRODUCERS[producer])
        fusion = run_fusion(dataset, params, detector, snapshot_store=tmp_path)
        assert len(fusion.snapshot_ids) == fusion.n_rounds >= 2
        views = [record.detection.decisions for record in fusion.rounds]
        assert all(isinstance(view, DecisionView) and len(view) for view in views)
        assert [view.materialized for view in views] == [0] * len(views)

        final = views[-1]
        pair = next(iter(final))
        first = final[pair]
        assert final.materialized == 1
        assert final[pair] is first and final.get(pair) is first
        assert final.materialized == 1
        assert len(final.values()) == len(final) == final.materialized
        assert final[pair] is first

    def test_incremental_prep_round_is_columnar(self, tmp_path, monkeypatch):
        """Every INCREMENTAL round — preparation and patches alike — is a
        column table, and a fuse + publish builds no per-pair object."""
        from repro.core.bound import PairBookkeeping
        from repro.core.incremental import _PairRecord

        built = []
        for cls in (_PairRecord, PairBookkeeping, PairDecision):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        dataset, _, _ = _sparse_world()
        detector = IncrementalDetector(NUMPY)
        fusion = run_fusion(dataset, NUMPY, detector, snapshot_store=tmp_path)
        assert len(fusion.snapshot_ids) == fusion.n_rounds >= 3
        for record in fusion.rounds:
            assert isinstance(record.detection.decisions, DecisionView)
            assert record.detection.decisions.materialized == 0
        assert fusion.rounds[-1].detection.method == "incremental"
        assert built == []
        # The guard counts: reading one record through the view builds it.
        assert next(iter(detector.state.records().values())).n_total >= 1
        assert sorted(set(built)) == ["PairBookkeeping", "_PairRecord"]

    def test_the_pair_space_never_leaves_its_columns(self, monkeypatch):
        """From ``count_shared_items_columnar`` to ``EpochScan.finalize``
        no kernel decodes keys into tuples or encodes tuples into keys
        (at the parent: 57k tuples built, then re-encoded every round)."""
        from repro.core import bound_kernel, kernel, pairspace

        calls = []
        for module in (kernel, bound_kernel):
            for name in ("decode_pairs", "encode_pairs"):
                def counting(arg, _codec=getattr(pairspace, name),
                             _site=f"{module.__name__}.{name}"):
                    calls.append(_site)
                    return _codec(arg)

                monkeypatch.setattr(module, name, counting, raising=False)

        dataset, _, _ = _sparse_world(4)
        params = CopyParams(backend="numpy", pair_layout="sparse")
        fusion = run_fusion(dataset, params, SingleRoundDetector(params, "hybrid"))
        assert fusion.n_rounds >= 3 and len(fusion.final_detection().decisions)
        assert calls == []
        # The guard counts: naming a pair that shares no item decodes it.
        counts = kernel.count_shared_items_columnar(dataset)
        with pytest.raises(KeyError):
            kernel.shared_item_counts(counts, np.zeros(1, dtype=np.int64))  # (0, 0)
        assert calls == ["repro.core.kernel.decode_pairs"]


    @pytest.mark.parametrize("driver", ["hybrid", "incremental", "stream-epoch"])
    def test_the_claims_are_walked_once_into_columns(self, driver, tmp_path, monkeypatch):
        """A numpy fuse + publish (and a stream epoch) gathers from
        ``dataset.columns``: no ``IndexEntry`` is constructed, the
        per-claim ``Dataset.providers`` walk never runs and the python
        ``choose_values`` is never called (at the parent: one entry per
        shared value per round, one ``choose_values`` per publish)."""
        from repro.core import index as index_module
        from repro.data import ClaimDelta
        from repro.fusion import accu, pipeline
        from repro.streaming import StreamEngine

        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            index_module, "IndexEntry", counting("IndexEntry", index_module.IndexEntry)
        )
        for module in (accu, pipeline):
            monkeypatch.setattr(
                module, "choose_values", counting("choose_values", accu.choose_values)
            )

        dataset, _, _ = _sparse_world()
        if driver == "stream-epoch":
            batch = [
                ClaimDelta(dataset.source_names[s], dataset.item_names[i], dataset.value_label[v])
                for s, i, v in dataset.iter_claims()
            ]
            with StreamEngine(store=tmp_path, params=NUMPY) as engine:
                result = engine.run_epoch(batch)
                dataset, fusion = engine.state.dataset, result.fusion
                index = None
        else:
            detector = (
                IncrementalDetector(NUMPY) if driver == "incremental"
                else SingleRoundDetector(NUMPY, "hybrid")
            )
            fusion = run_fusion(dataset, NUMPY, detector, snapshot_store=tmp_path)
            index = detector.state.index if driver == "incremental" else None
        assert fusion.n_rounds >= 2 and len(fusion.chosen) == dataset.n_items
        assert len(VerdictStore(tmp_path).snapshot_ids()) >= 1
        assert calls == []
        assert dataset._providers is None and dataset._columns is not None
        # The guard counts: reading the entries builds them, and the
        # reference picks the same truths in the same order.
        if index is not None:
            assert len(index.entries) == index.n_entries > 0
            assert calls == ["IndexEntry"] * index.n_entries
        assert list(accu.choose_values(dataset, fusion.probabilities).items()) == list(
            fusion.chosen.items()
        )


# ----------------------------------------------------------------------
# (b) the table through the snapshot arrays, and the bytes on disk
# ----------------------------------------------------------------------
def _assert_tables_identical(got: PairColumns, want: PairColumns):
    for name in ("keys",) + PAIR_COLUMNS:
        column, other = getattr(want, name), getattr(got, name)
        assert other.dtype == column.dtype, name
        np.testing.assert_array_equal(other, column, err_msg=name)


def _store_digest(store: VerdictStore) -> str:
    """SHA-256 over every snapshot of a store: each meta field but
    ``created``, then every array's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for snapshot_id in store.snapshot_ids():
        meta, arrays = store.load(snapshot_id)
        del meta["created"]
        digest.update(json.dumps(meta, sort_keys=True).encode())
        for name, array in arrays.items():
            digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


#: ``_store_digest`` of ``run_fusion(_sparse_world(4), ...,
#: fusion_backend="python", snapshot_store=...)``.  "incremental" is as
#: written at 6fb385a, the last commit where verdicts reached a snapshot
#: through ``PairRows`` / ``decision_positions()`` / ``decision_delta``.
#: "hybrid-partitioned" was re-pinned when pair rows took the store's
#: tolerance (a840957 wrote f515c447...): rounds 1-2 are byte-identical
#: to that store; round 3 (13 of 16 pairs survive, 3 of them past 1e-6)
#: is a 3-row delta where the exact diff tripped a full, round 5's three
#: sub-tolerance upserts are gone, and rounds 4, 6, 7 carry the same
#: rows with ``copier_scores`` a few ulps off (the ranking sums the
#: merged state, whose unmoved rows keep their published scores).
PARENT_STORE_SHA256 = {
    "incremental": "2e3e8994d2912b7f2498dfffd6e5e6fcc0236f7a87eca81b24fd3479b8808c99",
    "hybrid-partitioned": "d4f2fdec74cf5021b80daa96caffd6650930dd737e782818f3c8a47e2517f226",
}


class TestByteIdentity:
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("method", ["hybrid", "index"])
    def test_rows_from_columns_equal_rows_from_decisions(self, layout, method):
        """The kernel's table and the table built from the same verdicts
        as a dict (plus a ``pair -> position`` dict) store identically."""
        dataset, probs, accs = _sparse_world(2)
        result = detect(dataset, probs, accs, replace(NUMPY, pair_layout=layout),
                        method=method)
        columns = result.columns()
        assert (columns.decision_pos == -1).all()  # nothing tracked
        rows = np.arange(len(columns))
        booked = replace(columns, decision_pos=np.where(rows % 3, rows, -1))
        positions = {pair: i for i, pair in enumerate(result.decisions) if i % 3}
        _assert_tables_identical(
            PairColumns.from_decisions(dict(result.decisions), positions), booked
        )
        oracle = detect(dataset, probs, accs, CopyParams(backend="python"),
                        method=method)
        if method == "hybrid":  # bit-exact family
            _assert_tables_identical(oracle.columns(), columns)

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_table_round_trips_through_the_snapshot_arrays(self, world, data):
        """``PairColumns -> arrays -> PairColumns`` loses nothing — the
        flag byte unpacks to the two bool columns it packed, positions
        at -1, 0 and ``n_entries`` survive — and an empty table too."""
        dataset, probs, accs = world
        outcome = detect_hybrid(dataset, probs, accs, NUMPY, track_bookkeeping=True)
        columns = outcome.result.columns()
        n_entries = outcome.index.n_entries
        assert set(columns.decision_pos.tolist()) <= set(range(n_entries + 1))
        edge = st.sampled_from([-1, 0, n_entries])
        positions = np.array(
            [data.draw(edge | st.just(int(pos))) for pos in columns.decision_pos],
            dtype=np.int64,
        )
        early = np.array(
            [data.draw(st.booleans()) for _ in range(len(columns))], dtype=bool
        )
        table = replace(columns, decision_pos=positions, early=early)
        for case in (table, table.take(np.zeros(len(table), dtype=bool))):
            arrays = pair_arrays(case)
            assert list(arrays) == [
                "pair_keys", "pair_c_fwd", "pair_c_bwd", "pair_independent",
                "pair_forward", "pair_backward", "pair_flags", "pair_decision_pos",
            ]
            assert arrays["pair_flags"].dtype == np.uint8
            assert arrays["pair_flags"].tolist() == (
                case.copying * 1 + case.early * 2
            ).tolist()
            _assert_tables_identical(pairs_from_arrays(arrays, "memory"), case)

    @staticmethod
    def _published(store_dir, params, detector) -> VerdictStore:
        """Fuse ``_sparse_world(4)`` into a store holding fulls and deltas."""
        dataset, _, _ = _sparse_world(4)
        fusion = run_fusion(
            dataset, params, detector, fusion_backend="python", snapshot_store=store_dir
        )
        assert fusion.n_rounds >= 3
        store = VerdictStore(store_dir)
        kinds = {store.load(sid)[0]["kind"] for sid in store.snapshot_ids()}
        assert kinds == {"full", "delta"}
        return store

    def test_incremental_snapshots_equal_the_python_backend(self, tmp_path):
        """INCREMENTAL fuse + publish under numpy (the kernels fill the
        ``decision_pos`` column; at the parent a ``(keys, positions)``
        side channel) writes what the python backend (positions ride
        the result as a dict) writes, and both write what the parent
        commit wrote: every array, every meta field but ``created``,
        fulls and deltas alike."""
        for backend in ("python", "numpy"):
            params = CopyParams(backend=backend)
            store = self._published(
                tmp_path / backend, params, IncrementalDetector(params)
            )
            assert _store_digest(store) == PARENT_STORE_SHA256["incremental"], backend
        positions = np.concatenate(
            [store.load(sid)[1]["pair_decision_pos"] for sid in (1, 2, 3)]
        )
        assert -1 in positions and positions.max() >= 0  # round 1 books nothing

    def test_partitioned_hybrid_snapshots_equal_the_parents(self, tmp_path):
        detector = SingleRoundDetector(NUMPY, "hybrid", n_partitions=2, reduce="tree")
        store = self._published(tmp_path, NUMPY, detector)
        assert _store_digest(store) == PARENT_STORE_SHA256["hybrid-partitioned"]
        for sid in store.snapshot_ids():  # no bookkeeping: nothing tracked
            assert (store.load(sid)[1]["pair_decision_pos"] == -1).all()

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_snapshots_equal_the_dict_backed_run(self, layout, tmp_path):
        """Publishing columnar results writes what publishing the same
        verdicts as plain dicts writes — every array, every meta field
        but the ``created`` stamp, fulls and deltas alike."""
        dataset, _, _ = _sparse_world(3)
        params = CopyParams(backend="numpy", pair_layout=layout)
        fusion = run_fusion(
            dataset, params, SingleRoundDetector(params, "hybrid"),
            snapshot_store=tmp_path / "columnar",
        )
        publisher = SnapshotPublisher(tmp_path / "dicts", dataset)
        probabilities = fusion.probabilities
        for record in fusion.rounds:
            as_dict = replace(
                record.detection, decisions=dict(record.detection.decisions)
            )
            publisher.publish_round(record.round_no, as_dict, probabilities)
        columnar, dicts = VerdictStore(tmp_path / "columnar"), publisher.store
        assert columnar.snapshot_ids() == dicts.snapshot_ids()
        for snapshot_id in columnar.snapshot_ids():
            meta_a, arrays_a = columnar.load(snapshot_id)
            meta_b, arrays_b = dicts.load(snapshot_id)
            meta_a.pop("created"), meta_b.pop("created")
            # Item rows follow the probabilities handed in, which differ
            # by design here; the pair half is what this test pins.
            assert {k: v for k, v in meta_a.items() if k != "n_items"} == {
                k: v for k, v in meta_b.items() if k != "n_items"
            }
            for name in arrays_a:
                if name.startswith(("pair_", "removed_pair", "copier_")):
                    assert arrays_a[name].dtype == arrays_b[name].dtype
                    np.testing.assert_array_equal(arrays_a[name], arrays_b[name])


# ----------------------------------------------------------------------
# (c) the store's pair diff against the dict comparison it replaced
# ----------------------------------------------------------------------
def _republished(old: PairDecision | None, new: PairDecision) -> bool:
    """The store's rule on two decisions: new, a bit differs, or a score
    sits past the tolerance from the published one."""
    if old is None or (old.copying, old.early) != (new.copying, new.early):
        return True
    scores = zip((old.c_fwd, old.c_bwd, *old.posterior), (new.c_fwd, new.c_bwd, *new.posterior))
    return any(abs(was - now) > SCORE_TOLERANCE for was, now in scores)


def _dict_delta(current: DetectionResult, previous: DetectionResult | None):
    """The delta as it first was: two dicts compared pair by pair."""
    decisions = dict(current.decisions)
    if previous is None:
        return decisions, frozenset()
    prev = dict(previous.decisions)
    if current.changed_pairs is not None:
        changed = {
            key: decisions[key] for key in current.changed_pairs if key in decisions
        }
        for key, decision in decisions.items():
            if key not in prev and key not in changed:
                changed[key] = decision
    else:
        changed = {
            key: decision
            for key, decision in decisions.items()
            if _republished(prev.get(key), decision)
        }
    return changed, frozenset(key for key in prev if key not in decisions)


class TestDeltaParity:
    @settings(max_examples=60, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_column_delta_equals_dict_delta(self, world, data):
        dataset, probs, accs = world
        python = CopyParams(backend="python")
        now = dict(detect(dataset, probs, accs, python, method="index").decisions)
        before = dict(
            detect(dataset, probs, accs[::-1], python, method="index").decisions
        )
        # Vanished and newly opened pairs; untouched rows on both sides.
        for pair in list(now):
            fate = data.draw(st.sampled_from(["keep", "same", "new", "gone"]))
            if fate == "same":
                before[pair] = now[pair]
            elif fate == "new":
                before.pop(pair, None)
            elif fate == "gone":
                before.setdefault(pair, now[pair])
                del now[pair]
        changed_pairs = None
        if data.draw(st.booleans()):
            changed_pairs = set(
                data.draw(st.lists(st.sampled_from(sorted(now) + sorted(before)
                                                   or [(0, 1)]), max_size=6))
            )
        n = dataset.n_sources
        for wrap in (lambda d, **kw: DetectionResult("t", n, d, **kw),
                     lambda d, **kw: _columnar(d, n, **kw)):
            current = wrap(dict(now), changed_pairs=changed_pairs)
            for previous in (wrap(dict(before)), None):
                want_changed, want_removed = _dict_delta(current, previous)
                published = previous.columns() if previous else PairColumns.from_decisions({})
                upsert, removed = pair_delta(published, current.columns(), changed_pairs)
                changed = DecisionView(current.columns().take(upsert))
                assert dict(changed) == want_changed
                assert decode_pairs(removed) == sorted(want_removed)
                assert changed.columns.keys.tolist() == sorted(
                    pair_key(s1, s2) for s1, s2 in want_changed
                )

    def test_delta_across_a_grown_source_count(self):
        # A streaming ledger can grow sources between two results; a
        # pair's key is the same in both.
        before = _columnar({(0, 1): _decision(1.0), (1, 2): _decision(2.0)}, 3).columns()
        after = _columnar(
            {(0, 1): _decision(1.0), (1, 2): _decision(2.5), (2, 4): _decision(3.0)}, 5
        ).columns()
        upsert, removed = pair_delta(before, after, None)
        assert decode_pairs(after.keys[upsert]) == [(1, 2), (2, 4)]
        assert len(removed) == 0
        assert decode_pairs(pair_delta(after, before, None)[1]) == [(2, 4)]
