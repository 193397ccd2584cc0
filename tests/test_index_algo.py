"""INDEX: Example 3.6 accounting and the PAIRWISE-equivalence guarantee."""

import pytest
from hypothesis import given, settings

from repro.core import (
    CopyParams,
    EntryOrdering,
    InvertedIndex,
    detect_index,
    detect_pairwise,
)
from tests.strategies import worlds


class TestExample36:
    @pytest.fixture(scope="class")
    def result(self, example, example_probabilities, example_accuracies, params):
        return detect_index(example, example_probabilities, example_accuracies, params)

    def test_pairs_considered(self, result):
        """Example 3.6: 26 pairs occur in entries outside E-bar."""
        assert result.cost.pairs_considered == 26

    def test_values_examined(self, result):
        """Example 3.6: 51 shared values examined."""
        assert result.cost.values_examined == 51

    def test_computations(self, result):
        """Example 3.6: 51*2 + 26*2 = 154 computations."""
        assert result.cost.computations == 154

    def test_skipped_pair_s0_s5(self, result, example):
        """S0 and S5 share only tail values (Albany, Austin) -> never opened."""
        ids = {name: i for i, name in enumerate(example.source_names)}
        assert result.decision_for(ids["S0"], ids["S5"]) is None


class TestEquivalence:
    """Proposition 3.5: INDEX's binary results equal PAIRWISE's."""

    def test_motivating_example(
        self, example, example_probabilities, example_accuracies, params
    ):
        pw = detect_pairwise(
            example, example_probabilities, example_accuracies, params
        )
        ix = detect_index(example, example_probabilities, example_accuracies, params)
        assert ix.copying_pairs() == pw.copying_pairs()

    @settings(max_examples=60, deadline=None)
    @given(world=worlds())
    def test_random_worlds(self, world):
        dataset, probs, accs = world
        params = CopyParams()
        pw = detect_pairwise(dataset, probs, accs, params)
        ix = detect_index(dataset, probs, accs, params)
        assert ix.copying_pairs() == pw.copying_pairs()

    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_opened_pair_scores_exact(self, world):
        """For every pair INDEX opens, its scores equal PAIRWISE's exactly."""
        dataset, probs, accs = world
        params = CopyParams()
        pw = detect_pairwise(dataset, probs, accs, params)
        ix = detect_index(dataset, probs, accs, params)
        for pair, decision in ix.decisions.items():
            reference = pw.decision_for(*pair)
            assert reference is not None
            assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)
            assert decision.c_bwd == pytest.approx(reference.c_bwd, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(world=worlds())
    def test_skipped_pairs_are_independent(self, world):
        """Pairs INDEX never opens are no-copying under PAIRWISE too."""
        dataset, probs, accs = world
        params = CopyParams()
        pw = detect_pairwise(dataset, probs, accs, params)
        ix = detect_index(dataset, probs, accs, params)
        for pair in pw.copying_pairs():
            assert pair in ix.decisions

    @settings(max_examples=30, deadline=None)
    @given(world=worlds())
    def test_ordering_does_not_change_results(self, world):
        """INDEX accumulates exactly, so entry order is irrelevant."""
        dataset, probs, accs = world
        params = CopyParams()
        results = [
            detect_index(
                dataset, probs, accs, params,
                index=InvertedIndex.build(
                    dataset, probs, accs, params, ordering=ordering
                ),
            )
            for ordering in EntryOrdering
        ]
        first = results[0].copying_pairs()
        assert all(r.copying_pairs() == first for r in results[1:])
