"""The FAGININPUT baseline: NRA's input lists for copy detection."""

import pytest

from repro.core import detect_index
from repro.core.fagin_input import build_fagin_input
from repro.data import DatasetBuilder


class TestFaginInput:
    def test_verdicts_match_index(
        self, example, example_probabilities, example_accuracies, params
    ):
        fagin = build_fagin_input(
            example, example_probabilities, example_accuracies, params
        )
        index_result = detect_index(
            example, example_probabilities, example_accuracies, params
        )
        assert fagin.result.copying_pairs() == index_result.copying_pairs()

    def test_value_lists_sorted(self, example, example_probabilities, example_accuracies, params):
        fagin = build_fagin_input(
            example, example_probabilities, example_accuracies, params
        )
        for lst in fagin.value_lists:
            scores = [score for _, score in lst]
            assert scores == sorted(scores, reverse=True)

    def test_both_directions_present(
        self, example, example_probabilities, example_accuracies, params
    ):
        fagin = build_fagin_input(
            example, example_probabilities, example_accuracies, params
        )
        directed = {pair for lst in fagin.value_lists for pair, _ in lst}
        assert all((b, a) in directed for a, b in directed)

    def test_list_sums_match_decisions(
        self, example, example_probabilities, example_accuracies, params
    ):
        """A directed pair's entries over every list sum to its ``C->``:
        the lists hold exactly the evidence the verdicts were built from."""
        fagin = build_fagin_input(
            example, example_probabilities, example_accuracies, params
        )
        assert fagin.diff_list  # the penalty list takes part in the sums
        totals = {}
        for lst in [*fagin.value_lists, fagin.diff_list]:
            for pair, score in lst:
                totals[pair] = totals.get(pair, 0.0) + score
        decisions = fagin.result.decisions
        assert len(totals) == 2 * len(decisions)
        for (s1, s2), decision in decisions.items():
            assert totals[(s1, s2)] == pytest.approx(decision.c_fwd, abs=1e-9)
            assert totals[(s2, s1)] == pytest.approx(decision.c_bwd, abs=1e-9)

    def test_no_shared_value_builds_empty_lists(self, params):
        b = DatasetBuilder()
        b.add("A", "D1", "x")
        b.add("B", "D2", "y")
        ds = b.build()
        fagin = build_fagin_input(ds, [0.5, 0.5], [0.8, 0.8], params)
        assert fagin.value_lists == []
        assert fagin.diff_list == []
        assert not fagin.result.decisions
