"""Input validation and failure-mode behaviour across the public API."""

import pytest

from repro.core import detect, detect_pairwise
from repro.data import DatasetBuilder
from repro.fusion import FusionConfig, run_fusion


def _tiny():
    b = DatasetBuilder()
    b.add("A", "D", "x")
    b.add("B", "D", "x")
    return b.build()


class TestDetectValidation:
    def test_unknown_method_raises_before_work(self, params):
        ds = _tiny()
        with pytest.raises(ValueError, match="unknown method"):
            detect(ds, [0.5], [0.8, 0.8], params, method="quantum")

    def test_probability_vector_length_checked_for_index_methods(self, params):
        ds = _tiny()
        with pytest.raises(ValueError):
            detect(ds, [0.5, 0.5], [0.8, 0.8], params, method="index")

    def test_accuracy_vector_length_checked_for_index_methods(self, params):
        ds = _tiny()
        with pytest.raises(ValueError):
            detect(ds, [0.5], [0.8], params, method="hybrid")


class TestDegenerateDatasets:
    def test_empty_dataset_all_methods(self, params):
        ds = DatasetBuilder().build()
        for method in ("pairwise", "index", "bound+", "hybrid"):
            result = detect(ds, [], [], params, method=method)
            assert result.decisions == {}

    def test_single_source(self, params):
        b = DatasetBuilder()
        b.add("only", "D", "x")
        ds = b.build()
        result = detect_pairwise(ds, [0.5], [0.8], params)
        assert result.decisions == {}

    def test_disjoint_sources(self, params):
        b = DatasetBuilder()
        b.add("A", "D1", "x")
        b.add("B", "D2", "y")
        ds = b.build()
        for method in ("pairwise", "index", "hybrid"):
            result = detect(ds, [0.5, 0.5], [0.8, 0.8], params, method=method)
            assert result.copying_pairs() == set()

    def test_fusion_on_empty_dataset(self, params):
        ds = DatasetBuilder().build()
        result = run_fusion(ds, params, detector=None, config=FusionConfig(max_rounds=2))
        assert result.chosen == {}
        assert result.accuracies == []

    def test_source_with_no_claims_survives_fusion(self, params):
        b = DatasetBuilder()
        b.ensure_source("ghost")
        b.add("A", "D", "x")
        b.add("B", "D", "x")
        ds = b.build()
        result = run_fusion(ds, params, detector=None)
        ghost = ds.source_names.index("ghost")
        assert result.accuracies[ghost] == 0.5  # neutral, untouched


class TestExtremeInputs:
    def test_probability_extremes(self, params):
        """P exactly at the strategy floor/ceiling must not blow up."""
        ds = _tiny()
        for p in (1e-9, 1.0 - 1e-9):
            result = detect_pairwise(ds, [p], [0.8, 0.8], params)
            decision = result.decision_for(0, 1)
            assert decision is not None
            assert decision.c_fwd == decision.c_fwd  # not NaN

    def test_accuracy_extremes_clamped(self, params):
        ds = _tiny()
        result = detect_pairwise(ds, [0.5], [0.0, 1.0], params)
        decision = result.decision_for(0, 1)
        assert abs(decision.c_fwd) < 1e6  # finite thanks to the clamp
