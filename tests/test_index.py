"""Inverted index: Definition 3.2 invariants, tail, orderings, rescoring."""

import random
from itertools import combinations

import pytest
from hypothesis import given

from repro.core import CopyParams, EntryOrdering, InvertedIndex
from tests.strategies import worlds


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
        scores = index.rescore(new_probs, example_accuracies, params)
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
