"""The vectorized scoring kernel and backend equivalence.

The numpy backend reorders floating-point additions, so scores are
compared to the pure-Python reference at 1e-9; verdicts (the booleans the
paper actually reports) must be *identical*.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy", reason="the vectorized backend needs numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BACKENDS,
    ColumnarEntries,
    CopyParams,
    InvertedIndex,
    PairTable,
    detect,
    same_value_scores_both,
    scan_columnar,
)
from repro.core.kernel import (
    clamp_accuracies,
    count_shared_items_columnar,
    score_incidences,
)
from repro.core.contribution import exact_posteriors, posterior
from repro.core.index import count_shared_items
from repro.core.pairspace import decode_pairs, encode_pairs
from tests.strategies import worlds

METHODS = ("pairwise", "index", "bound", "bound+", "hybrid")


def _entry_triangle(p_true, accuracies, params):
    """One entry's provider triangle through the scan's own scoring calls."""
    acc = clamp_accuracies(accuracies)
    iu, ju = np.triu_indices(len(acc), 1)
    return score_incidences(np.full(len(iu), p_true), acc[iu], acc[ju], params)


class TestEntryTriangle:
    def test_matches_scalar_contribution(self, params):
        """The broadcast Eq. (6) agrees with the scalar reference."""
        p_true = 0.3
        accs = [0.9, 0.6, 0.75, 0.2]
        fwd, bwd = _entry_triangle(p_true, accs, params)
        k = len(accs)
        m = 0
        for i in range(k):
            for j in range(i + 1, k):
                ref_fwd, ref_bwd = same_value_scores_both(
                    p_true, accs[i], accs[j], params
                )
                assert fwd[m] == pytest.approx(ref_fwd, abs=1e-12)
                assert bwd[m] == pytest.approx(ref_bwd, abs=1e-12)
                m += 1
        assert m == len(fwd) == len(bwd) == k * (k - 1) // 2

    def test_clamps_extreme_accuracies(self, params):
        fwd, bwd = _entry_triangle(0.5, [0.0, 1.0], params)
        assert np.isfinite(fwd).all() and np.isfinite(bwd).all()


class TestPairTable:
    def test_accumulates_and_merges(self):
        n_sources = 4
        s1 = np.array([0, 0, 0, 1])
        s2 = np.array([1, 1, 2, 3])
        fwd = np.array([1.0, 2.0, 3.0, 4.0])
        bwd = np.array([0.5, 0.5, 0.5, 0.5])
        main = np.array([True, False, False, True])
        table = PairTable.from_incidences(n_sources, s1, s2, fwd, bwd, main)
        assert table.keys.tolist() == encode_pairs([(0, 1), (0, 2), (1, 3)]).tolist()
        assert table.c_fwd.tolist() == [3.0, 3.0, 4.0]
        assert table.n_shared.tolist() == [2, 1, 1]
        assert table.saw_main.tolist() == [True, False, True]
        assert decode_pairs(table.keys) == [(0, 1), (0, 2), (1, 3)]

        # Splitting the stream and merging must give the same table.
        half_a = PairTable.from_incidences(
            n_sources, s1[:2], s2[:2], fwd[:2], bwd[:2], main[:2]
        )
        half_b = PairTable.from_incidences(
            n_sources, s1[2:], s2[2:], fwd[2:], bwd[2:], main[2:]
        )
        merged = PairTable.merge([half_a, half_b])
        assert merged.keys.tolist() == table.keys.tolist()
        assert merged.c_fwd.tolist() == table.c_fwd.tolist()
        assert merged.n_shared.tolist() == table.n_shared.tolist()
        assert merged.saw_main.tolist() == table.saw_main.tolist()

    def test_sparse_path_matches_dense(self, monkeypatch):
        """Forcing the np.unique path gives the same reduction."""
        import repro.core.kernel as kernel

        rng = np.random.default_rng(3)
        n_sources = 30
        s1 = rng.integers(0, n_sources, 500)
        s2 = rng.integers(0, n_sources, 500)
        fwd = rng.normal(size=500)
        bwd = rng.normal(size=500)
        main = rng.random(500) < 0.5
        dense = PairTable.from_incidences(n_sources, s1, s2, fwd, bwd, main)
        monkeypatch.setattr(kernel, "DENSE_KEY_SPACE", 0)
        sparse = PairTable.from_incidences(n_sources, s1, s2, fwd, bwd, main)
        assert sparse.keys.tolist() == dense.keys.tolist()
        np.testing.assert_allclose(sparse.c_fwd, dense.c_fwd, atol=1e-12)
        np.testing.assert_allclose(sparse.c_bwd, dense.c_bwd, atol=1e-12)
        assert sparse.n_shared.tolist() == dense.n_shared.tolist()
        assert sparse.saw_main.tolist() == dense.saw_main.tolist()

    def test_merge_rejects_mixed_source_counts(self):
        a = PairTable.empty(3)
        with pytest.raises(ValueError):
            PairTable.merge([a])  # all empty
        # The keys no longer depend on the source count, but the dense
        # merge grid is sized by it: tables of two worlds do not merge.
        full, other = (
            PairTable.from_incidences(
                n_sources,
                np.array([0]),
                np.array([1]),
                np.array([1.0]),
                np.array([1.0]),
                np.array([True]),
            )
            for n_sources in (4, 5)
        )
        assert full.keys.tolist() == other.keys.tolist()
        with pytest.raises(ValueError, match="source counts"):
            PairTable.merge([full, other])


class TestColumnarEntries:
    def test_from_index_roundtrip(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = InvertedIndex.build(
            example, example_probabilities, example_accuracies, params
        )
        cols = ColumnarEntries.from_index(index)
        assert cols.n_entries == index.n_entries
        for pos, entry in enumerate(index.entries):
            start, stop = cols.offsets[pos], cols.offsets[pos + 1]
            assert cols.providers[start:stop].tolist() == entry.providers
            assert cols.probs[pos] == entry.probability
            assert bool(cols.main[pos]) == (pos < index.tail_start)

    def test_scan_matches_python_state(
        self, example, example_probabilities, example_accuracies, params
    ):
        """The kernel scan reproduces detect_index's accumulated state."""
        index = InvertedIndex.build(
            example, example_probabilities, example_accuracies, params
        )
        cols = ColumnarEntries.from_index(index)
        table = scan_columnar(cols, example_accuracies, params, example.n_sources)
        reference = detect(
            example,
            example_probabilities,
            example_accuracies,
            params,
            method="index",
        )
        opened = {
            pair for pair, main in zip(decode_pairs(table.keys), table.saw_main.tolist()) if main
        }
        assert opened == set(reference.decisions)


def _claims_world(claims: dict) -> "Dataset":
    """``{source: [items]}`` as a dataset (every claim the value "v")."""
    from repro.data import DatasetBuilder

    builder = DatasetBuilder()
    for source, items in claims.items():
        for item in items:
            builder.add(source, item, "v")
    return builder.build()


#: The shapes a random world rarely draws: no claim at all, only
#: single-provider items, exactly one shared item, a hub source sharing
#: an item with everyone, and one item whose 33,670-pair triangle alone
#: is more than a whole counting block (``EPOCH_INCIDENCE_BUDGET``).
EDGE_WORLDS = {
    "no-claims": {},
    "empty": {"A": ["a"], "B": ["b"]},
    "one-shared-item": {"A": ["x", "a"], "B": ["x", "b"], "C": ["c"]},
    "hub": {"H": ["i1", "i2", "i3"], "A": ["i1"], "B": ["i2"], "C": ["i3"]},
    "item-over-a-block": {
        f"S{i}": (["x", "big"] if i % 2 else ["big", "y"]) for i in range(260)
    },
}
EDGE_PAIRS = {
    "no-claims": 0,
    "empty": 0,
    "one-shared-item": 1,
    "hub": 3,
    "item-over-a-block": 260 * 259 // 2,
}


def _assert_is_the_oracle_mapping(table, dataset):
    oracle = count_shared_items(dataset)
    assert table == oracle and oracle == table
    assert table.columns.keys.dtype == table.columns.l.dtype == np.int64


class TestSharedItemsColumnar:
    @settings(max_examples=50, deadline=None)
    @given(world=worlds(), budget=st.sampled_from((1, 3, 10, 32_768)))
    def test_matches_simjoin(self, world, budget):
        """Under any block budget, from one item per block to one block."""
        from unittest import mock

        from repro.core import kernel

        dataset, _, _ = world
        with mock.patch.object(kernel, "EPOCH_INCIDENCE_BUDGET", budget):
            for layout in ("dense", "sparse"):
                _assert_is_the_oracle_mapping(
                    count_shared_items_columnar(dataset, layout), dataset
                )

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("shape", EDGE_WORLDS)
    def test_edge_worlds(self, layout, shape):
        dataset = _claims_world(EDGE_WORLDS[shape])
        table = count_shared_items_columnar(dataset, layout)
        _assert_is_the_oracle_mapping(table, dataset)
        assert len(table) == EDGE_PAIRS[shape]

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_peak_memory_does_not_grow_with_the_items(self, layout):
        """Items are counted in blocks of bounded incidence mass: twice
        the items (~45 providers each, ~1k pairs per item) do not double
        the count's transient peak, which stays near one block's."""
        import tracemalloc

        from repro.data import DatasetBuilder

        def peak(n_items):
            rng = np.random.default_rng(n_items)
            builder = DatasetBuilder()
            for item in range(n_items):
                for source in np.flatnonzero(rng.random(55) < 0.82):
                    builder.add(f"S{source}", f"I{item}", "v")
            dataset = builder.build()
            dataset.columns  # the claim table is the input, not the transient
            tracemalloc.start()
            try:
                count_shared_items_columnar(dataset, layout)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(300), peak(600)
        assert large < 1.5 * small, (small, large)
        assert large < 4_000_000  # ~600k incidences would be ~30 MB at once

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_a_pair_sharing_no_item_is_a_key_error(self, layout):
        """Membership is part of the lookup: (1, 2) share nothing and
        their key falls between two rows of the table, where a bare
        ``searchsorted`` would answer with (1, 3)'s count."""
        from repro.core.kernel import shared_item_counts
        from repro.core.pairspace import encode_pair_keys

        dataset = _claims_world(
            {"S0": ["a", "b"], "S1": ["a", "c"], "S2": ["b"], "S3": ["c"]}
        )
        table = count_shared_items_columnar(dataset, layout)
        assert sorted(table) == [(0, 1), (0, 2), (1, 3)]
        present = encode_pair_keys([0, 1], [2, 3])
        assert shared_item_counts(table, present).tolist() == [1, 1]
        for s1, s2 in [(1, 2), (2, 3), (0, 3)]:
            keys = encode_pair_keys([0, s1, 1], [1, s2, 3])
            with pytest.raises(KeyError) as excinfo:
                shared_item_counts(table, keys)
            assert excinfo.value.args[0] == (s1, s2)
            with pytest.raises(KeyError):
                table[(s1, s2)]

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_plain_dict_detects_like_the_table(self, method, layout):
        """``detect(shared_items=<dict>)`` under numpy is converted once,
        where the index is built: same bytes as handing it the table."""
        from tests.test_columns import _assert_tables_identical, _sparse_world

        dataset, probs, accs = _sparse_world(1)
        params = CopyParams(backend="numpy", pair_layout=layout)
        table = count_shared_items_columnar(dataset)
        want = detect(dataset, probs, accs, params, method=method, shared_items=table)
        for shared in (count_shared_items(dataset), None):
            got = detect(
                dataset, probs, accs, params, method=method, shared_items=shared
            )
            _assert_tables_identical(got.columns(), want.columns())
            assert got.cost == want.cost


class TestPosteriorArrays:
    def test_matches_scalar(self, params):
        """The array Eq. (2) every NumPy kernel runs equals the scalar
        reference bit for bit."""
        rng = np.random.default_rng(7)
        c_fwd = rng.uniform(-50.0, 500.0, 64)
        c_bwd = rng.uniform(-50.0, 500.0, 64)
        ind, fwd, bwd = exact_posteriors(c_fwd, c_bwd, params)
        for m in range(len(c_fwd)):
            ref = posterior(c_fwd[m], c_bwd[m], params)
            assert (ind[m], fwd[m], bwd[m]) == tuple(ref)


class TestBackendEquivalence:
    """The acceptance property: both backends agree on every method."""

    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    @pytest.mark.parametrize("method", METHODS)
    def test_verdicts_and_posteriors_agree(self, world, method):
        dataset, probs, accs = world
        reference = detect(
            dataset, probs, accs, CopyParams(backend="python"), method=method
        )
        vectorized = detect(
            dataset, probs, accs, CopyParams(backend="numpy"), method=method
        )
        assert set(vectorized.decisions) == set(reference.decisions)
        for pair, ref in reference.decisions.items():
            vec = vectorized.decisions[pair]
            assert vec.copying == ref.copying
            assert vec.c_fwd == pytest.approx(ref.c_fwd, abs=1e-9)
            assert vec.c_bwd == pytest.approx(ref.c_bwd, abs=1e-9)
            assert vec.posterior.independent == pytest.approx(
                ref.posterior.independent, abs=1e-9
            )
            assert vec.posterior.forward == pytest.approx(
                ref.posterior.forward, abs=1e-9
            )
            assert vec.posterior.backward == pytest.approx(
                ref.posterior.backward, abs=1e-9
            )

    @pytest.mark.parametrize("method", ("pairwise", "index"))
    def test_cost_accounting_matches_on_example(
        self, example, example_probabilities, example_accuracies, params, method
    ):
        """The numpy backend reproduces the paper's computation counts."""
        # The reference side pins backend="python" explicitly: since the
        # default flipped to numpy, a bare `params` here would make this
        # a vacuous numpy-vs-numpy comparison.
        ref = detect(
            example,
            example_probabilities,
            example_accuracies,
            replace(params, backend="python"),
            method=method,
        )
        vec = detect(
            example,
            example_probabilities,
            example_accuracies,
            replace(params, backend="numpy"),
            method=method,
        )
        assert vec.cost.computations == ref.cost.computations
        assert vec.cost.values_examined == ref.cost.values_examined
        assert vec.cost.pairs_considered == ref.cost.pairs_considered

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            CopyParams(backend="fortran")
        assert set(BACKENDS) == {"python", "numpy"}
