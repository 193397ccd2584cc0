"""The sparse pair-state layer (PR 6).

Three groups of pins:

* the :mod:`repro.core.pairspace` primitives themselves — key codec,
  layout resolution (and its warning), slot universes, keyed reduction
  — including the degenerate shapes (empty worlds, a single observed
  pair, duplicate incidences);
* int64 key discipline: ``(s1 << 32) | s2`` must never wrap an int32
  id, pinned end-to-end at ``n_sources > 2**16`` and at the codec level
  up to ``ID_LIMIT - 1``;
* dense/sparse parity: forcing ``pair_layout`` must not change any
  verdict — bit-exactly for the bound family and the ACCUCOPY fusion
  round, within the property-tested 1e-9 re-association tolerance for
  the exhaustive/index kernels;
* the :class:`~repro.core.pairspace.PairMap` contract, once for each
  row shape the numpy backend serves through it: it reads like the
  python reference's dict, lazily.
"""

import logging
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.conformance.generators import RandomChooser, large_sparse_world
from repro.core import METHODS, CopyParams, IncrementalDetector, detect
from repro.core.pairspace import (
    ID_LIMIT,
    PairMap,
    PairSpace,
    decode_pair_keys,
    decode_pairs,
    encode_pair_keys,
    encode_pairs,
    pair_key,
    reduce_by_key,
    resolve_pair_layout,
)
from repro.data import DatasetBuilder

NUMERIC_TOL = 1e-9

#: Methods whose sparse run must equal the dense run bit-for-bit: their
#: scans fold contributions in entry-stream order in both layouts.
BITEXACT_METHODS = ("bound", "bound+", "hybrid")


def sparse_problem(seed: int, n_sources: int = 30, n_items: int = 12):
    """A deterministic downsized Zipf-coverage world."""
    world = large_sparse_world(
        RandomChooser(random.Random(seed)),
        n_sources=n_sources,
        n_items=n_items,
    )
    return world.materialize()


# ----------------------------------------------------------------------
# Key codec
# ----------------------------------------------------------------------
def _stride_keys(s1, s2, n_sources):
    """The key this codec replaced (``s1 * n_sources + s2``), on Python
    ints — the oracle for *order*: both keys sort pairs the same way."""
    return [a * n_sources + b for a, b in zip(s1, s2)]


class TestKeyCodec:
    def test_round_trip(self):
        s1 = np.array([0, 1, 3, 7])
        s2 = np.array([1, 2, 5, 8])
        keys = encode_pair_keys(s1, s2)
        assert keys.dtype == np.int64
        d1, d2 = decode_pair_keys(keys)
        np.testing.assert_array_equal(d1, s1)
        np.testing.assert_array_equal(d2, s2)
        # The tuple and scalar forms are the same codec.
        pairs = decode_pairs(keys)
        assert pairs == [(0, 1), (1, 2), (3, 5), (7, 8)]
        assert all(type(x) is int for pair in pairs for x in pair)
        np.testing.assert_array_equal(encode_pairs(dict.fromkeys(pairs)), keys)
        assert encode_pairs(set()).dtype == np.int64
        assert [pair_key(a, b) for a, b in pairs] == keys.tolist()
        # Directed lookups encode either order; the two never collide.
        assert decode_pairs(encode_pair_keys(s2, s1)) == [(b, a) for a, b in pairs]
        assert not set(encode_pair_keys(s2, s1).tolist()) & set(keys.tolist())

    def test_keys_stay_int64_beyond_two_pow_sixteen_sources(self):
        # int32 ids must be widened before they are shifted, all the way
        # up to the codec's limit: the largest id neither wraps nor
        # aliases a smaller pair.
        top = ID_LIMIT - 1
        s1 = np.array([0, 1, 65_536, 0, top - 1], dtype=np.int32)
        s2 = np.array([1, 2, 69_999, top, top], dtype=np.int32)
        keys = encode_pair_keys(s1, s2)
        assert keys.dtype == np.int64
        assert keys.tolist() == [pair_key(a, b) for a, b in zip(s1.tolist(), s2.tolist())]
        assert keys[-1] == (top - 1) * 2**32 + top > 2**62
        assert (keys >= 0).all() and len(set(keys.tolist())) == len(keys)
        np.testing.assert_array_equal(
            encode_pairs(list(zip(s1.tolist(), s2.tolist()))), keys
        )
        d1, d2 = decode_pair_keys(keys)
        np.testing.assert_array_equal(d1, s1.astype(np.int64))
        np.testing.assert_array_equal(d2, s2.astype(np.int64))

    def test_python_int_inputs(self):
        keys = encode_pair_keys([2], [3])
        assert keys.dtype == np.int64
        assert keys[0] == pair_key(2, 3) == 2 * 2**32 + 3

    def test_key_order_is_lexicographic_pair_order(self):
        # Every sort, np.unique grouping and snapshot row order rests on
        # this: the key sorts pairs exactly as the stride key did.
        rng = np.random.default_rng(5)
        n_sources = 300
        s1 = rng.integers(0, n_sources, size=2_000)
        s2 = rng.integers(0, n_sources, size=2_000)
        order = np.argsort(encode_pair_keys(s1, s2), kind="stable")
        np.testing.assert_array_equal(order, np.lexsort((s2, s1)))
        stride = np.array(_stride_keys(s1.tolist(), s2.tolist(), n_sources))
        np.testing.assert_array_equal(order, np.argsort(stride, kind="stable"))
        # ... also where the stride key would have needed more than int64
        wide1 = np.array([ID_LIMIT - 2, 0, ID_LIMIT - 2, 1, 0])
        wide2 = np.array([ID_LIMIT - 1, ID_LIMIT - 1, 0, 2, 1])
        assert np.argsort(encode_pair_keys(wide1, wide2)).tolist() == sorted(
            range(5), key=lambda i: (wide1[i], wide2[i])
        )

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_pairs_key_does_not_depend_on_the_world(self, method, layout):
        # Growth stability, through the kernels: the same six claimants
        # keep their keys when 40 idle sources join the world (the
        # stride key moved with every newcomer; the dense grid still
        # does, which is why it must never leave PairSpace).
        assert _stride_keys([1], [2], 6) != _stride_keys([1], [2], 46)
        params = CopyParams(backend="numpy", pair_layout=layout)
        keys = []
        for n_idle in (0, 40):
            builder = DatasetBuilder()
            for source_id in range(6):
                builder.add(f"S{source_id}", "item0", "v0")
                builder.add(f"S{source_id}", "item1", f"v{source_id % 2}")
            for source_id in range(n_idle):
                builder.ensure_source(f"idle{source_id}")
            dataset = builder.build()
            result = detect(
                dataset, [0.3] * dataset.n_values, [0.8] * dataset.n_sources,
                params, method=method,
            )
            keys.append(result.columns().keys.tolist())
            reference = detect(
                dataset, [0.3] * dataset.n_values, [0.8] * dataset.n_sources,
                CopyParams(backend="python"), method=method,
            )
            assert keys[-1] == sorted(pair_key(*pair) for pair in reference.decisions)
        assert keys[0] == keys[1] != []


# ----------------------------------------------------------------------
# Layout resolution
# ----------------------------------------------------------------------
class TestResolvePairLayout:
    def test_explicit_layouts_honoured_unconditionally(self):
        assert resolve_pair_layout("dense", 10**6, 4, "k") == "dense"
        assert resolve_pair_layout("sparse", 2, 4**9, "k") == "sparse"

    def test_auto_dense_below_limit(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            assert resolve_pair_layout("auto", 10, 100, "k") == "dense"
        assert not caplog.records

    def test_auto_sparse_above_limit_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            layout = resolve_pair_layout("auto", 11, 100, "some.kernel")
        assert layout == "sparse"
        [record] = caplog.records
        assert "some.kernel" in record.getMessage()
        assert "121" in record.getMessage()
        assert "sparse" in record.getMessage()

    def test_auto_sparse_warns_once_per_world(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            for _ in range(2):
                assert resolve_pair_layout("auto", 11, 100, "k") == "sparse"
            assert len(caplog.records) == 1
            # A different world, limit or kernel is a different fact.
            resolve_pair_layout("auto", 12, 100, "k")
            resolve_pair_layout("auto", 11, 99, "k")
            resolve_pair_layout("auto", 11, 100, "other.kernel")
        assert len(caplog.records) == 4

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="pair_layout"):
            resolve_pair_layout("columnar", 10, 100, "k")

    def test_params_reject_unknown_layout(self):
        with pytest.raises(ValueError, match="pair_layout"):
            CopyParams(pair_layout="columnar")

    @pytest.mark.parametrize("method", ["pairwise", "index"])
    def test_shared_item_counter_honours_params_layout(
        self, monkeypatch, caplog, method
    ):
        """``l(S1, S2)`` is counted in ``CopyParams.pair_layout``: a forced
        ``"sparse"`` reaches the sparse branch on a small world, and a
        forced ``"dense"`` past the dense limit neither switches nor logs
        the ``"auto"`` warning."""
        from repro.core import kernel
        from repro.core.pairspace import _warn_sparse

        _warn_sparse.cache_clear()  # the warning fires once per process
        requested = []
        resolve = kernel.resolve_pair_layout

        def recording(layout, n_sources, dense_limit, name):
            if name == "kernel.count_shared_items_columnar":
                requested.append(layout)
            return resolve(layout, n_sources, dense_limit, name)

        monkeypatch.setattr(kernel, "resolve_pair_layout", recording)
        dataset, probs, accs = sparse_problem(0)
        detect(dataset, probs, accs, CopyParams(pair_layout="sparse"), method=method)
        monkeypatch.setattr(kernel, "DENSE_KEY_SPACE", 4)
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            detect(
                dataset, probs, accs, CopyParams(pair_layout="dense"), method=method
            )
        assert requested == ["sparse", "dense"]
        assert caplog.records == []


# ----------------------------------------------------------------------
# PairSpace
# ----------------------------------------------------------------------
class TestPairSpace:
    def test_dense_identity(self):
        space = PairSpace.dense(4)
        assert len(space) == 16
        s1, s2 = np.array([0, 1, 2]), np.array([3, 3, 3])
        cells = space.slots(s1, s2)
        np.testing.assert_array_equal(cells, [3, 7, 11])  # the private grid
        np.testing.assert_array_equal(space.slot_keys(cells), encode_pair_keys(s1, s2))
        d1, d2 = space.decode(np.array([7]))
        assert (d1[0], d2[0]) == (1, 3)

    def test_sparse_collapses_duplicates_and_sorts(self):
        # The space is built from sorted unique keys (np.unique is how a
        # duplicated, unsorted stream gets there); slots are key ranks.
        pairs = [(2, 1), (1, 1), (2, 1), (5, 1), (1, 1)]
        space = PairSpace.sparse(np.unique(encode_pairs(pairs)))
        assert space.layout == "sparse"
        assert decode_pairs(space.keys) == [(1, 1), (2, 1), (5, 1)]
        assert len(space) == 3
        np.testing.assert_array_equal(
            space.slots(np.array([1, 5, 2, 2]), np.array([1, 1, 1, 1])), [0, 2, 1, 1]
        )
        assert decode_pairs(space.slot_keys(np.array([2, 0]))) == [(5, 1), (1, 1)]

    def test_empty_sparse_space(self):
        space = PairSpace.sparse(np.array([], dtype=np.int64))
        assert len(space) == 0
        assert space.zeros().shape == (0,)
        empty = np.array([], dtype=np.int64)
        assert space.slots(empty, empty).shape == (0,)

    def test_single_observed_pair(self):
        space = PairSpace.sparse(encode_pair_keys([17], [40_123]))
        assert len(space) == 1
        slot = space.slots(np.array([17]), np.array([40_123]))
        assert slot[0] == 0
        s1, s2 = space.decode(slot)
        assert (s1[0], s2[0]) == (17, 40_123)

    def test_zeros_dtype(self):
        space = PairSpace.sparse(encode_pair_keys([1], [1]))
        assert space.zeros(dtype=np.int8).dtype == np.int8
        assert space.zeros().dtype == np.float64

    def test_invalid_constructions(self):
        with pytest.raises(ValueError, match="observed keys"):
            PairSpace("sparse")
        with pytest.raises(ValueError, match="layout"):
            PairSpace("auto", n_sources=4)

    def test_sparse_slots_monotone_in_key(self):
        # The bit-exactness of the sparse bound scan rests on this:
        # slot order == key order, so key-sorted iteration is identical
        # in both layouts.
        rng = np.random.default_rng(3)
        cells = np.sort(rng.choice(10_000, size=200, replace=False))
        s1, s2 = cells // 100, cells % 100
        space = PairSpace.sparse(encode_pair_keys(s1, s2))
        np.testing.assert_array_equal(space.slots(s1, s2), np.arange(200))
        # ... and the dense grid is monotone in the key too.
        assert (np.diff(PairSpace.dense(100).slots(s1, s2)) > 0).all()

    def test_layouts_round_trip_slots_to_the_same_keys(self):
        # pairs -> slots -> slot_keys / decode is the identity in both
        # layouts, and both hand back the same stride-free keys.
        rng = np.random.default_rng(8)
        n_sources = 60
        s1 = rng.integers(0, n_sources - 1, size=400)
        s2 = rng.integers(s1 + 1, n_sources)
        keys = encode_pair_keys(s1, s2)
        for space in (PairSpace.dense(n_sources), PairSpace.sparse(np.unique(keys))):
            slots = space.slots(s1, s2)
            np.testing.assert_array_equal(space.slot_keys(slots), keys)
            d1, d2 = space.decode(slots)
            np.testing.assert_array_equal(d1, s1)
            np.testing.assert_array_equal(d2, s2)


# ----------------------------------------------------------------------
# reduce_by_key
# ----------------------------------------------------------------------
class TestReduceByKey:
    def test_layouts_agree_bit_for_bit(self):
        rng = np.random.default_rng(11)
        n_sources = 40
        s1 = rng.integers(0, n_sources, size=500)
        s2 = rng.integers(0, n_sources, size=500)
        cols = [rng.standard_normal(500), rng.standard_normal(500)]
        uniq_d, sums_d = reduce_by_key(n_sources, s1, s2, cols, "dense")
        uniq_s, sums_s = reduce_by_key(n_sources, s1, s2, cols, "sparse")
        np.testing.assert_array_equal(uniq_d, uniq_s)
        np.testing.assert_array_equal(uniq_s, np.unique(encode_pair_keys(s1, s2)))
        for dense_col, sparse_col in zip(sums_d, sums_s):
            np.testing.assert_array_equal(dense_col, sparse_col)

    def test_duplicate_incidences_collapse(self):
        s1 = np.array([1, 1, 1, 0])
        s2 = np.array([2, 2, 2, 2])
        col = np.array([1.0, 2.0, 4.0, 8.0])
        for layout in ("dense", "sparse"):
            uniq, (sums,) = reduce_by_key(3, s1, s2, [col], layout)
            assert decode_pairs(uniq) == [(0, 2), (1, 2)]
            np.testing.assert_array_equal(sums, [8.0, 7.0])

    def test_zero_weight_rows_survive(self):
        # Presence comes from pair occurrence, not weight: a pair whose
        # contributions sum to zero must still be reported.
        s1, s2 = np.array([1, 1]), np.array([2, 2])
        col = np.array([1.0, -1.0])
        for layout in ("dense", "sparse"):
            uniq, (sums,) = reduce_by_key(3, s1, s2, [col], layout)
            assert decode_pairs(uniq) == [(1, 2)]
            np.testing.assert_array_equal(sums, [0.0])


# ----------------------------------------------------------------------
# Dense/sparse parity across the detection methods
# ----------------------------------------------------------------------
class TestLayoutParity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forced_layouts_agree(self, method, seed):
        dataset, probs, accs = sparse_problem(seed)
        params = CopyParams(backend="numpy")
        dense = detect(dataset, probs, accs,
                       replace(params, pair_layout="dense"), method=method)
        sparse = detect(dataset, probs, accs,
                        replace(params, pair_layout="sparse"), method=method)
        assert set(dense.decisions) == set(sparse.decisions)
        if method in BITEXACT_METHODS:
            assert dense.decisions == sparse.decisions
            assert dense.cost.computations == sparse.cost.computations
            return
        for pair, dense_decision in dense.decisions.items():
            sparse_decision = sparse.decisions[pair]
            assert sparse_decision.copying == dense_decision.copying
            assert sparse_decision.c_fwd == pytest.approx(
                dense_decision.c_fwd, abs=NUMERIC_TOL
            )
            assert sparse_decision.c_bwd == pytest.approx(
                dense_decision.c_bwd, abs=NUMERIC_TOL
            )

    def test_incremental_rounds_agree(self):
        dataset, probs, accs = sparse_problem(9)
        runs = {}
        for layout in ("dense", "sparse"):
            detector = IncrementalDetector(
                CopyParams(backend="numpy", pair_layout=layout)
            )
            runs[layout] = [
                detector.run_round(round_no, dataset, probs, accs).decisions
                for round_no in (1, 2, 3)
            ]
        assert runs["dense"] == runs["sparse"]

    def test_accucopy_fusion_round_agrees(self):
        import repro.fusion.accu_kernel as ak

        dataset, probs, accs = sparse_problem(4)
        detection = detect(
            dataset, probs, accs, CopyParams(backend="numpy"), method="index"
        )
        cols = dataset.columns
        out = {}
        for layout in ("dense", "sparse"):
            params = CopyParams(backend="numpy", pair_layout=layout)
            out[layout] = ak.value_probabilities_columnar(
                cols, np.asarray(accs), params, detection
            )
        np.testing.assert_array_equal(out["sparse"], out["dense"])

    def test_auto_layout_past_the_dense_limit_matches_reference(self, caplog):
        """A generated world wide enough that ``auto`` itself goes sparse
        (1,200 sources: 1.44M keys > ``DENSE_STATE_LIMIT``): BOUND+ is
        bit-identical to the reference loop and the ACCUCOPY round it
        feeds agrees within 1e-9 — the wide-world referee's self-check
        (``benchmarks/bench_scale_sweep.py``) at tier-1 size."""
        import repro.fusion.accu_kernel as ak
        from repro.core import bound_kernel
        from repro.fusion import value_probabilities

        dataset, probs, accs = sparse_problem(1205, n_sources=1200, n_items=120)
        assert dataset.n_sources**2 > bound_kernel.DENSE_STATE_LIMIT
        reference = detect(
            dataset, probs, accs, CopyParams(backend="python"), method="bound+"
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            result = detect(
                dataset, probs, accs, CopyParams(backend="numpy"), method="bound+"
            )
        assert any("sparse" in rec.message for rec in caplog.records)
        assert len(reference.decisions) > 5_000
        assert result.decisions == reference.decisions
        assert result.cost == reference.cost
        fused = ak.value_probabilities_columnar(
            dataset.columns,
            np.asarray(accs),
            CopyParams(backend="numpy"),
            result,
        )
        np.testing.assert_allclose(
            fused,
            value_probabilities(
                dataset, accs, CopyParams(backend="python"), detection=reference
            ),
            atol=NUMERIC_TOL,
            rtol=0.0,
        )

    def test_empty_world_all_methods(self):
        builder = DatasetBuilder()
        for source_id in range(5):
            builder.ensure_source(f"S{source_id}")
        dataset = builder.build()
        for method in METHODS:
            for layout in ("dense", "sparse"):
                result = detect(
                    dataset, [], [0.8] * 5,
                    CopyParams(backend="numpy", pair_layout=layout),
                    method=method,
                )
                assert result.decisions == {}

    def test_single_observed_pair_world(self):
        builder = DatasetBuilder()
        for source_id in range(40):
            builder.ensure_source(f"S{source_id}")
        builder.add("S3", "item0", "v0")
        builder.add("S27", "item0", "v0")
        dataset = builder.build()
        probs = [0.4] * dataset.n_values
        accs = [0.8] * 40
        for method in METHODS:
            reference = detect(
                dataset, probs, accs, CopyParams(backend="python"),
                method=method,
            )
            result = detect(
                dataset, probs, accs,
                CopyParams(backend="numpy", pair_layout="sparse"),
                method=method,
            )
            # The python reference decides the same pairs (pairwise sees
            # the shared item; the index methods agree either way).
            assert set(result.decisions) == set(reference.decisions)
        pairwise = detect(
            dataset, probs, accs,
            CopyParams(backend="numpy", pair_layout="sparse"),
            method="pairwise",
        )
        assert set(pairwise.decisions) == {(3, 27)}


# ----------------------------------------------------------------------
# int64 keys end-to-end past 2**16 sources
# ----------------------------------------------------------------------
class TestHugeSourceIds:
    def test_detect_beyond_two_pow_sixteen_sources(self):
        # 70k sources: the dense grid would be ~4.9e9 cells (> 2**32)
        # and any int32 arithmetic in the keying would wrap and alias
        # pairs.  Auto must pick the sparse layout and the numpy scans
        # must match the python reference on the handful of observed
        # pairs.
        n = 70_000
        builder = DatasetBuilder()
        for source_id in range(n):
            builder.ensure_source(f"S{source_id}")
        claimants = [0, 1, 2, n - 3, n - 2, n - 1]
        for source_id in claimants:
            builder.add(f"S{source_id}", "item0", "v0")
            builder.add(f"S{source_id}", "item1", f"v{source_id % 2}")
        dataset = builder.build()
        probs = [0.3] * dataset.n_values
        accs = [0.8] * n

        reference = detect(
            dataset, probs, accs, CopyParams(backend="python"), method="bound+"
        )
        for method in ("index", "bound+"):
            result = detect(
                dataset, probs, accs, CopyParams(backend="numpy"),
                method=method,
            )
            assert set(result.decisions) == set(reference.decisions)
            # Every decided pair must involve the actual claimants —
            # an int32 wrap would alias keys into other source ids.
            for s1, s2 in result.decisions:
                assert s1 in claimants and s2 in claimants
        numpy_result = detect(
            dataset, probs, accs, CopyParams(backend="numpy"), method="bound+"
        )
        assert numpy_result.decisions == reference.decisions

    def test_pair_tables_at_the_id_limit(self):
        # Nobody can build a 2**31-source world, but the tables a kernel
        # fills must hold its largest pairs: the sparse reduce, a merge
        # of partial tables and the verdict view all keep ids up to
        # ``ID_LIMIT - 1`` apart from every smaller pair.
        from repro.core.kernel import PairTable, decide_pairs

        top = ID_LIMIT - 1
        pairs = [(0, 1), (0, top), (65_536, top - 1), (top - 1, top)]
        s1 = np.array([a for a, _ in pairs] * 2)
        s2 = np.array([b for _, b in pairs] * 2)
        fwd = np.arange(8, dtype=np.float64)
        main = np.ones(8, dtype=bool)
        whole = PairTable.from_incidences(ID_LIMIT, s1, s2, fwd, -fwd, main)
        assert decode_pairs(whole.keys) == pairs
        assert whole.c_fwd.tolist() == [4.0, 6.0, 8.0, 10.0]
        halves = [
            PairTable.from_incidences(ID_LIMIT, s1[cut], s2[cut], fwd[cut], -fwd[cut], main[cut])
            for cut in (slice(0, 3), slice(3, 8))
        ]
        merged = PairTable.merge(halves)
        assert decode_pairs(merged.keys) == pairs
        assert merged.c_fwd.tolist() == whole.c_fwd.tolist()
        assert merged.n_shared.tolist() == [2, 2, 2, 2]
        shared = PairMap.from_counts(dict.fromkeys(pairs, 2))
        columns = decide_pairs(merged, shared, CopyParams())
        assert decode_pairs(columns.keys) == pairs


# ----------------------------------------------------------------------
# One pair-keyed mapping for every per-pair structure
# ----------------------------------------------------------------------
def _decision_table():
    """HYBRID's verdicts: the numpy mapping and the reference's dict
    (the bound family is bit-exact across backends)."""
    dataset, probs, accs = sparse_problem(3)
    got = detect(dataset, probs, accs, CopyParams(backend="numpy"), method="hybrid")
    want = detect(dataset, probs, accs, CopyParams(backend="python"), method="hybrid")
    return got.decisions, want.decisions


def _bookkeeping():
    """A tracked bound scan's ``pair -> PairBookkeeping``."""
    from repro.core.bound import detect_hybrid

    dataset, probs, accs = sparse_problem(3)
    outcomes = [
        detect_hybrid(dataset, probs, accs, CopyParams(backend=backend),
                      track_bookkeeping=True)
        for backend in ("numpy", "python")
    ]
    return tuple(outcome.bookkeeping for outcome in outcomes)


def _shared_items():
    """Section III's ``l(S1, S2)`` counts."""
    from repro.core.index import count_shared_items
    from repro.core.kernel import count_shared_items_columnar

    dataset, _, _ = sparse_problem(3)
    return count_shared_items_columnar(dataset), count_shared_items(dataset)


ROW_SHAPES = {
    "decisions": _decision_table,
    "bookkeeping": _bookkeeping,
    "shared_items": _shared_items,
}


@pytest.mark.parametrize("shape", ROW_SHAPES)
class TestPairMapContract:
    """What every caller may rely on, whichever rows the map builds."""

    def test_equals_its_dict_both_ways(self, shape):
        mapping, want = ROW_SHAPES[shape]()
        assert isinstance(mapping, PairMap) and isinstance(want, dict)
        assert mapping == want and want == mapping
        assert len(mapping) == len(want) > 0
        assert mapping != {**want, (0, ID_LIMIT - 1): None}

    def test_iterates_in_ascending_key_order(self, shape):
        mapping, want = ROW_SHAPES[shape]()
        pairs = list(mapping)
        assert pairs == sorted(want)
        assert all(type(s) is int for pair in pairs for s in pair)
        assert list(mapping.keys()) == pairs
        assert mapping.materialized == 0  # iteration reads the keys only

    def test_lookups(self, shape):
        mapping, want = ROW_SHAPES[shape]()
        s1, s2 = pair = next(iter(mapping))
        assert pair in mapping
        assert mapping[pair] == want[pair]
        assert mapping.get(pair) is mapping[pair]  # memoised
        assert mapping[(np.int32(s1), np.int64(s2))] is mapping[pair]
        assert mapping.materialized == 1
        for missing in [(s2, s1), (s1, s1), (-1, s2), (s1, -s2), (s1, ID_LIMIT),
                        (ID_LIMIT, ID_LIMIT + 1), (s1, 2**32 + s2),
                        (s1 + 1, s2 - 2**32), (s1,), (s1, s2, 0), None, "ab",
                        (float(s1), float(s2))]:
            assert missing not in mapping
            assert mapping.get(missing) is None
            assert mapping.get(missing, "default") == "default"
            with pytest.raises(KeyError):
                mapping[missing]

    def test_values_and_items_in_key_order(self, shape):
        mapping, want = ROW_SHAPES[shape]()
        first = mapping[next(iter(mapping))]
        assert mapping.values() == [want[pair] for pair in sorted(want)]
        assert mapping.items() == sorted(want.items())
        assert mapping.values()[0] is first
        assert mapping.materialized == len(mapping)

    def test_read_only(self, shape):
        mapping, _ = ROW_SHAPES[shape]()
        pair = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[pair] = None
        with pytest.raises(TypeError):
            del mapping[pair]
        with pytest.raises(TypeError):
            hash(mapping)
        for name in ("update", "pop", "setdefault", "clear"):
            assert not hasattr(mapping, name)

    def test_pickle_round_trip(self, shape):
        mapping, want = ROW_SHAPES[shape]()
        mapping[next(iter(mapping))]  # warm the memo
        clone = pickle.loads(pickle.dumps(mapping))
        assert clone.materialized == 0
        assert clone == mapping and clone.materialized == 0  # compared in place
        assert clone == want
