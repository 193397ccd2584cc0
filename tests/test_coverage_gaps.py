"""Direct tests for paths otherwise exercised only indirectly."""

import pytest

from repro.core import (
    CopyParams,
    SingleRoundDetector,
    detect_pairwise,
    explain_pair,
    max_score,
    max_score_bruteforce,
)
from repro.data import DatasetBuilder
from repro.eval import run_method
from repro.eval.report import improvement, render_table
from repro.fusion import independence_weights, value_probabilities


class TestIndependenceWeights:
    def _copy_world(self, params):
        b = DatasetBuilder()
        b.add("orig", "D", "wrong")
        b.add("copier", "D", "wrong")
        b.add("other", "D", "right")
        ds = b.build()
        probs = [0.02, 0.9]  # wrong, right
        accs = [0.7, 0.7, 0.7]
        detection = detect_pairwise(ds, probs, accs, params)
        return ds, probs, accs, detection

    def test_copier_vote_discounted(self, params):
        ds, probs, accs, detection = self._copy_world(params)
        wrong = ds.value_label.index("wrong")
        providers = ds.providers[wrong]
        weights = independence_weights(providers, accs, detection, params)
        # Equal accuracies: one of the two providers is ranked second and
        # pays the discount; the first keeps full weight.
        assert max(weights) == pytest.approx(1.0)
        assert min(weights) < 1.0

    def test_weights_in_unit_interval(self, params):
        ds, probs, accs, detection = self._copy_world(params)
        for value_id, providers in enumerate(ds.providers):
            if len(providers) < 2:
                continue
            weights = independence_weights(providers, accs, detection, params)
            assert all(0.0 <= w <= 1.0 for w in weights)

    def test_independent_sources_keep_full_weight(self, params):
        b = DatasetBuilder()
        b.add("a", "D", "v")
        b.add("b", "D", "v")
        ds = b.build()
        detection = detect_pairwise(ds, [0.9], [0.9, 0.9], params)
        assert not detection.decision_for(0, 1).copying
        weights = independence_weights([0, 1], [0.9, 0.9], detection, params)
        # No-copying posteriors still discount by their residual copy
        # probability; weights stay close to 1.
        assert all(w > 0.7 for w in weights)


class TestRunnerRemainingMethods:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.synth import make_profile

        return make_profile("book_cs", scale=0.08, seed=29)

    @pytest.mark.parametrize("method", ["bound", "bound+", "sample2"])
    def test_methods_run_and_decide(self, world, method):
        run = run_method(method, world.dataset, CopyParams(), seed=2)
        assert run.rounds >= 1
        assert run.computations > 0
        if method == "sample2":
            assert run.sampled_items is not None


class TestDetectorCache:
    """The detector serves its bound workspace's one count table."""

    def test_shared_items_cached_per_dataset(self, example, params):
        from repro.fusion import FusionWorkspace

        detector = SingleRoundDetector(params, method="index")
        assert detector._shared_items(example) is None  # the index build counts
        with FusionWorkspace(example, params) as workspace:
            detector.bind_workspace(workspace)
            first = detector._shared_items(example)
            second = detector._shared_items(example)
        assert first is second  # identity: no recomputation
        assert first is workspace.shared_items

    def test_cache_invalidated_for_new_dataset(self, example, params):
        from repro.fusion import FusionWorkspace

        detector = SingleRoundDetector(params, method="index")
        b = DatasetBuilder()
        b.add("A", "D", "x")
        b.add("B", "D", "x")
        other = b.build()
        with FusionWorkspace(example, params) as workspace:
            detector.bind_workspace(workspace)
            first = detector._shared_items(example)
            assert detector._shared_items(other) is not first


class TestValueProbabilityEdges:
    def test_item_with_single_claim(self, params):
        b = DatasetBuilder()
        b.add("only", "D", "x")
        ds = b.build()
        probs = value_probabilities(ds, [0.8], params)
        assert 0.0 < probs[0] < 1.0

    def test_more_values_than_domain(self):
        """More observed values than n+1 slots must not go negative."""
        params = CopyParams(n=2)
        b = DatasetBuilder()
        for s in range(5):
            b.add(f"S{s}", "D", f"v{s}")
        ds = b.build()
        probs = value_probabilities(ds, [0.5] * 5, params)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0)


class TestStatsDerived:
    def test_avg_conflicts(self):
        b = DatasetBuilder()
        b.add("A", "D1", "x")
        b.add("B", "D1", "y")  # two values on D1
        b.add("A", "D2", "z")  # one value on D2
        stats = b.build().stats()
        assert stats.avg_conflicts_per_item == pytest.approx(1.5)


class TestExplainPair:
    """explain_pair: the evidence breakdown behind a verdict."""

    def _world(self):
        b = DatasetBuilder()
        b.add("A", "capital", "Trenton")
        b.add("B", "capital", "Trenton")  # shared, unlikely value
        b.add("A", "bird", "goldfinch")
        b.add("B", "bird", "robin")  # disagreement
        b.add("A", "tree", "oak")  # only A claims: not evidence
        ds = b.build()
        probs = {ds.value_label.index("Trenton"): 0.05}
        return ds, [probs.get(v, 0.5) for v in range(ds.n_values)], [0.8, 0.8]

    def test_breakdown_accounts_for_every_shared_item(self, params):
        ds, probs, accs = self._world()
        explanation = explain_pair(ds, 0, 1, probs, accs, params)
        assert explanation.source_a == "A"
        assert explanation.n_shared_values == 1
        assert explanation.n_different == 1
        assert len(explanation.items) == 2  # 'tree' is not shared
        # Totals are the sum of the per-item contributions.
        assert explanation.c_fwd == pytest.approx(
            sum(ev.c_fwd for ev in explanation.items)
        )
        # Items are sorted by forward contribution, strongest first.
        assert explanation.items[0].shared
        assert explanation.items[0].c_fwd >= explanation.items[1].c_fwd
        assert explanation.top_evidence(1) == explanation.items[:1]

    def test_matches_pairwise_detection(self, params):
        """The explanation recomputes exactly what PAIRWISE concluded."""
        ds, probs, accs = self._world()
        detection = detect_pairwise(ds, probs, accs, params)
        decision = detection.decision_for(0, 1)
        explanation = explain_pair(ds, 0, 1, probs, accs, params)
        assert explanation.c_fwd == pytest.approx(decision.c_fwd)
        assert explanation.c_bwd == pytest.approx(decision.c_bwd)
        assert explanation.copying == decision.copying
        assert explanation.posterior.independent == pytest.approx(
            decision.posterior.independent
        )

    def test_render_lists_evidence_and_truncates(self, params):
        b = DatasetBuilder()
        for i in range(8):
            b.add("A", f"item{i}", "v")
            b.add("B", f"item{i}", "v")
        b.add("A", "extra", "x")
        b.add("B", "extra", "y")
        ds = b.build()
        explanation = explain_pair(
            ds, 0, 1, [0.3] * ds.n_values, [0.7, 0.9], params
        )
        text = explanation.render(max_items=3)
        assert "A vs B" in text
        assert "... and 6 more items" in text
        assert text.count("+ item") == 3  # truncated at max_items
        full = explanation.render(max_items=50)
        assert "more items" not in full
        assert "- extra" in full  # disagreements render with both values

    def test_invalid_sources_rejected(self, example, example_probabilities,
                                      example_accuracies, params):
        with pytest.raises(ValueError, match="itself"):
            explain_pair(
                example, 1, 1, example_probabilities, example_accuracies, params
            )
        with pytest.raises(ValueError, match="out of range"):
            explain_pair(
                example, 0, 99, example_probabilities, example_accuracies, params
            )


class TestRenderTable:
    def test_formats_cell_types(self):
        text = render_table(
            "T",
            ["name", "count", "ratio", "flag"],
            [
                ["a", 1234567, 0.1234, True],
                ["b", 2, float("nan"), False],
                ["c", 3, 12345.6, True],
            ],
        )
        assert "1,234,567" in text  # thousands separators on ints
        assert "0.123" in text  # 3-decimal floats
        assert "12,346" in text  # large floats lose decimals
        assert "yes" in text and "no" in text  # booleans
        lines = text.splitlines()
        assert lines[1] == "=" * len("T")
        # NaN renders as a dash, not 'nan'.
        assert any(" - " in line for line in lines)
        # All data rows are padded to the same width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_improvement_convention(self):
        assert improvement(10.0, 1.0) == pytest.approx(0.9)
        assert improvement(10.0, 10.0) == 0.0
        assert improvement(10.0, 20.0) == pytest.approx(-1.0)
        assert improvement(0.0, 5.0) != improvement(0.0, 5.0)  # NaN


class TestMaxScoreEdges:
    def test_rejects_single_provider(self, params):
        with pytest.raises(ValueError):
            max_score(0.5, [0.8], params)
        with pytest.raises(ValueError):
            max_score_bruteforce(0.5, [0.8], params)

    @pytest.mark.parametrize(
        "accuracies",
        [
            [0.8, 0.8],  # the degenerate two-provider tie
            [0.5, 0.5, 0.5, 0.5],  # all equal: every extreme coincides
            [0.001, 0.999],  # beyond the clamp on both sides
            [0.01, 0.01, 0.99, 0.99],  # paired extremes
            [0.2, 0.2, 0.2, 0.9],  # second-min equals min
        ],
    )
    @pytest.mark.parametrize("p_true", [0.001, 0.5, 0.999])
    def test_degenerate_menus_match_bruteforce(self, params, accuracies, p_true):
        """Proposition 3.1's extremes shortcut survives ties and clamps."""
        assert max_score(p_true, accuracies, params) == pytest.approx(
            max_score_bruteforce(p_true, accuracies, params), abs=1e-12
        )
