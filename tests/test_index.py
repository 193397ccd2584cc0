"""Inverted index: Definition 3.2 invariants, tail, orderings, rescoring."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CopyParams, EntryOrdering, InvertedIndex, max_score
from repro.data import DatasetBuilder, motivating_example
from tests.strategies import adversarial_worlds, saturated_worlds, worlds


def _build(example, example_probabilities, example_accuracies, params, **kw):
    return InvertedIndex.build(
        example, example_probabilities, example_accuracies, params, **kw
    )


class TestConstruction:
    def test_entry_count_matches_table_iii(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(example, example_probabilities, example_accuracies, params)
        assert index.n_entries == 13

    def test_singleton_values_excluded(
        self, example, example_probabilities, example_accuracies, params
    ):
        """No entries for NJ.Union, AZ.Tucson, TX.Arlington (Example 3.3)."""
        index = _build(example, example_probabilities, example_accuracies, params)
        labels = {example.value_label[e.value_id] for e in index.entries}
        assert {"Union", "Tucson", "Arlington"}.isdisjoint(labels)

    def test_every_entry_has_two_providers(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(example, example_probabilities, example_accuracies, params)
        assert all(len(e.providers) >= 2 for e in index.entries)

    def test_tail_is_albany_and_austin(
        self, example, example_probabilities, example_accuracies, params
    ):
        """Example 3.6: E-bar = {NY.Albany, TX.Austin} (.43 + .43 < 1.39)."""
        index = _build(example, example_probabilities, example_accuracies, params)
        tail_labels = {
            example.value_label[e.value_id] for e in index.entries[index.tail_start :]
        }
        assert tail_labels == {"Albany", "Austin"}

    def test_vector_length_validation(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            InvertedIndex.build(
                example, example_probabilities[:-1], example_accuracies, params
            )
        with pytest.raises(ValueError):
            InvertedIndex.build(
                example, example_probabilities, example_accuracies[:-1], params
            )

    def test_shared_item_counts(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(example, example_probabilities, example_accuracies, params)
        ids = {name: i for i, name in enumerate(example.source_names)}
        s2s3 = tuple(sorted((ids["S2"], ids["S3"])))
        assert index.shared_items[s2s3] == 5
        # S0: NJ, AZ, NY, TX; S9: NJ, FL, TX -> they share NJ and TX.
        s0s9 = tuple(sorted((ids["S0"], ids["S9"])))
        assert index.shared_items[s0s9] == 2


class TestOrdering:
    def test_by_contribution_descending(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(example, example_probabilities, example_accuracies, params)
        main = index.entries[: index.tail_start]
        scores = [e.score for e in main]
        assert scores == sorted(scores, reverse=True)

    def test_by_provider_ascending(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(
            example,
            example_probabilities,
            example_accuracies,
            params,
            ordering=EntryOrdering.BY_PROVIDER,
        )
        main = index.entries[: index.tail_start]
        counts = [len(e.providers) for e in main]
        assert counts == sorted(counts)

    def test_random_is_seeded(
        self, example, example_probabilities, example_accuracies, params
    ):
        a = _build(
            example,
            example_probabilities,
            example_accuracies,
            params,
            ordering=EntryOrdering.RANDOM,
            rng=random.Random(42),
        )
        b = _build(
            example,
            example_probabilities,
            example_accuracies,
            params,
            ordering=EntryOrdering.RANDOM,
            rng=random.Random(42),
        )
        assert [e.value_id for e in a.entries] == [e.value_id for e in b.entries]

    def test_orderings_share_tail(
        self, example, example_probabilities, example_accuracies, params
    ):
        """The tail is score-defined, independent of the processing order."""
        tails = []
        for ordering in EntryOrdering:
            index = _build(
                example,
                example_probabilities,
                example_accuracies,
                params,
                ordering=ordering,
            )
            tails.append(
                {e.value_id for e in index.entries[index.tail_start :]}
            )
        assert tails[0] == tails[1] == tails[2]


class TestSuffixMax:
    @given(world=worlds())
    def test_suffix_max_invariant(self, world):
        dataset, probs, accs = world
        params = CopyParams()
        index = InvertedIndex.build(dataset, probs, accs, params)
        for pos in range(index.n_entries):
            remaining = [e.score for e in index.entries[pos:]]
            assert index.suffix_max[pos] == pytest.approx(max(remaining))
        assert index.suffix_max[index.n_entries] == 0.0

    def test_m_is_next_entry_score_under_by_contribution(
        self, example, example_probabilities, example_accuracies, params
    ):
        """Proposition 3.4: with score ordering, M = the next entry's score."""
        index = _build(example, example_probabilities, example_accuracies, params)
        main = index.entries[: index.tail_start]
        for pos in range(len(main) - 1):
            assert index.suffix_max[pos + 1] == pytest.approx(main[pos + 1].score)


class TestRescore:
    def test_rescore_matches_fresh_build(
        self, example, example_probabilities, example_accuracies, params
    ):
        index = _build(example, example_probabilities, example_accuracies, params)
        new_probs = [min(p + 0.01, 0.99) for p in example_probabilities]
        scores = [
            max_score(
                new_probs[e.value_id],
                [example_accuracies[s] for s in e.providers],
                params,
            )
            for e in index.entries
        ]
        fresh = InvertedIndex.build(example, new_probs, example_accuracies, params)
        fresh_by_value = {e.value_id: e.score for e in fresh.entries}
        for entry, score in zip(index.entries, scores):
            assert score == pytest.approx(fresh_by_value[entry.value_id])

    def test_pairs_in_main(
        self, example, example_probabilities, example_accuracies, params
    ):
        """Example 3.6: 26 pairs occur in entries outside E-bar."""
        index = _build(example, example_probabilities, example_accuracies, params)
        main_pairs = {
            pair
            for entry in index.entries[: index.tail_start]
            for pair in combinations(entry.providers, 2)
        }
        assert len(main_pairs) == 26


# ----------------------------------------------------------------------
# The columnar build (backend="numpy") against the reference build
# ----------------------------------------------------------------------
NUMPY = CopyParams(backend="numpy")
PYTHON = CopyParams(backend="python")


def _assert_same_index(dataset, probs, accs, alpha=None):
    """numpy ``build`` == python ``build``: entries field by field (hex
    floats), tail cut, suffix maxima, counts — under all three orderings."""
    kw = {} if alpha is None else {"alpha": alpha}
    for ordering in EntryOrdering:
        want = InvertedIndex.build(
            dataset, probs, accs, CopyParams(backend="python", **kw),
            ordering=ordering, rng=random.Random(11),
        )
        got = InvertedIndex.build(
            dataset, probs, accs, CopyParams(backend="numpy", **kw),
            ordering=ordering, rng=random.Random(11),
        )
        assert got.n_entries == want.n_entries == len(want.entries)
        assert got.tail_start == want.tail_start, ordering
        assert [s.hex() for s in got.suffix_max] == [s.hex() for s in want.suffix_max]
        assert got.shared_items == want.shared_items
        assert got.items_per_source == want.items_per_source
        assert got.provider_counts == want.provider_counts
        assert got.value_ids.tolist() == [e.value_id for e in want.entries], ordering
        for mine, theirs in zip(got.entries, want.entries):
            assert (mine.value_id, mine.item_id, mine.providers) == (
                theirs.value_id, theirs.item_id, theirs.providers,
            )
            assert mine.probability.hex() == float(theirs.probability).hex()
            assert mine.score.hex() == theirs.score.hex()


def _alphas_around(target: float) -> list[float]:
    """Neighbouring ``alpha`` floats whose ``theta_ind`` sit strictly
    above, at-or-above and just below ``target`` (``theta_ind`` falls as
    ``alpha`` rises), by bisection."""
    lo, hi = 1e-300, 0.5 - 1e-12
    if not CopyParams(alpha=hi).theta_ind < target <= CopyParams(alpha=lo).theta_ind:
        return []
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if CopyParams(alpha=mid).theta_ind >= target:
            lo = mid
        else:
            hi = mid
    above = lo
    while CopyParams(alpha=above).theta_ind <= target:
        above = math.nextafter(above, 0.0)
    return [above, lo, hi]


class TestColumnarBuildOracle:
    @given(world=worlds())
    def test_random_worlds(self, world):
        _assert_same_index(*world)

    @settings(max_examples=15)
    @given(world=saturated_worlds())
    def test_saturated_worlds_tie_scores(self, world):
        """P = 1.0 everywhere: long runs of equal scores, so every
        stable-sort tie-break is exercised."""
        _assert_same_index(*world)

    @settings(max_examples=25)
    @given(world=adversarial_worlds())
    def test_adversarial_worlds(self, world):
        _assert_same_index(*world)

    @settings(max_examples=25)
    @given(world=worlds(), clones=st.integers(1, 3))
    def test_clone_sources_tie_everything(self, world, clones):
        """Sources cloning source 0 claim for claim: equal provider sets
        grow, equal accuracies make equal scores."""
        dataset, probs, accs = world
        builder = DatasetBuilder()
        names = dataset.source_names + [f"clone{k}" for k in range(clones)]
        for name in names:
            builder.ensure_source(name)
        for s, i, v in dataset.iter_claims():
            builder.add(names[s], dataset.item_names[i], dataset.value_label[v])
            if s == 0:
                for k in range(clones):
                    builder.add(f"clone{k}", dataset.item_names[i], dataset.value_label[v])
        cloned = builder.build()
        assert cloned.n_values == dataset.n_values
        _assert_same_index(cloned, probs, accs + [accs[0]] * clones if accs else [])

    @settings(max_examples=25)
    @given(world=worlds(), data=st.data())
    def test_theta_ind_edges(self, world, data):
        """The tail cut at theta_ind = 0, above the whole score mass, and
        at adjacent floats either side of a running tail sum."""
        dataset, probs, accs = world
        _assert_same_index(dataset, probs, accs, alpha=0.25)  # theta_ind == 0.0
        _assert_same_index(dataset, probs, accs, alpha=1e-300)  # ~ 690
        scores = sorted(e.score for e in InvertedIndex.build(dataset, probs, accs, PYTHON).entries)
        if not scores:
            return
        running, cut = 0.0, data.draw(st.integers(1, len(scores)))
        for score in scores[:cut]:
            running += score
        for alpha in _alphas_around(running):
            _assert_same_index(dataset, probs, accs, alpha=alpha)

    def test_named_shapes(self):
        empty = DatasetBuilder().build()
        _assert_same_index(empty, [], [])
        assert InvertedIndex.build(empty, [], [], NUMPY).entries == []
        lonely = DatasetBuilder()
        lonely.add("a", "x", "1")
        lonely.add("b", "x", "2")  # an item shared, no value shared
        lonely = lonely.build()
        _assert_same_index(lonely, [0.5, 0.5], [0.8, 0.8])
        assert InvertedIndex.build(lonely, [0.5, 0.5], [0.8, 0.8], NUMPY).n_entries == 0

    def test_random_ordering_draws_from_the_callers_rng(
        self, example, example_probabilities, example_accuracies
    ):
        world = (example, example_probabilities, example_accuracies)
        orders = {
            tuple(
                InvertedIndex.build(
                    *world, NUMPY, ordering=EntryOrdering.RANDOM, rng=random.Random(seed)
                ).value_ids.tolist()
            )
            for seed in range(6)
        }
        assert len(orders) > 1


class TestEntryTypes:
    """``IndexEntry`` says ``float`` / ``int`` / ``list[int]`` and means
    it: a numpy round must not leak NumPy scalars into the objects a
    python scan (or ``explain``, or ``nra``) then does arithmetic on."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_fields_are_plain_python_after_a_fusion_run(self, backend):
        from repro.core import IncrementalDetector
        from repro.fusion import run_fusion

        params = CopyParams(backend=backend)
        detector = IncrementalDetector(params)
        run_fusion(motivating_example(), params, detector)
        entries = detector.state.index.entries
        assert entries
        for entry in entries:
            assert type(entry.value_id) is int and type(entry.item_id) is int
            assert type(entry.probability) is float and type(entry.score) is float
            assert type(entry.providers) is list
            assert all(type(s) is int for s in entry.providers)

    def test_entries_are_built_once_and_only_when_read(self, monkeypatch):
        from repro.core import index as index_module

        built = []
        real = index_module.IndexEntry

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(index_module, "IndexEntry", counting)
        dataset = motivating_example()
        index = InvertedIndex.build(
            dataset, [0.5] * dataset.n_values, [0.8] * dataset.n_sources, NUMPY
        )
        assert index.n_entries == 13 and len(index.provider_counts) == 13
        assert index.columnar_entries().n_entries == 13
        assert built == []
        first = index.entries
        assert len(built) == 13 and index.entries is first
        assert len(built) == 13
