"""CopyParams: validation, derived thresholds, clamping."""

import math

import pytest

from repro.core import CopyParams


class TestValidation:
    def test_defaults_are_papers(self):
        params = CopyParams()
        assert params.alpha == 0.1
        assert params.s == 0.8
        assert params.n == 50

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1, 1.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            CopyParams(alpha=alpha)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 2.0])
    def test_s_out_of_range(self, s):
        with pytest.raises(ValueError):
            CopyParams(s=s)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            CopyParams(n=0)

    @pytest.mark.parametrize("clamp", [0.0, 0.5, 0.7])
    def test_clamp_out_of_range(self, clamp):
        with pytest.raises(ValueError):
            CopyParams(accuracy_clamp=clamp)

    def test_frozen(self):
        params = CopyParams()
        with pytest.raises(AttributeError):
            params.alpha = 0.2


class TestDerived:
    def test_beta(self):
        assert CopyParams(alpha=0.1).beta == pytest.approx(0.8)
        assert CopyParams(alpha=0.25).beta == pytest.approx(0.5)

    def test_thresholds_match_paper_example(self):
        """Example 4.2: theta_cp = ln(.8/.1) = 2.08, theta_ind = ln(.8/.2) = 1.39."""
        params = CopyParams(alpha=0.1)
        assert params.theta_cp == pytest.approx(2.0794, abs=1e-3)
        assert params.theta_ind == pytest.approx(1.3863, abs=1e-3)

    def test_threshold_ordering(self):
        params = CopyParams(alpha=0.05)
        assert params.theta_cp > params.theta_ind > 0

    def test_ln_one_minus_s(self):
        """Example 4.2 uses ln(1-s) = ln(.2) ~ -1.6."""
        assert CopyParams(s=0.8).ln_one_minus_s == pytest.approx(math.log(0.2))


class TestClamp:
    def test_inside_range_unchanged(self):
        params = CopyParams(accuracy_clamp=0.01)
        assert params.clamp_accuracy(0.5) == 0.5

    def test_extremes_clamped(self):
        params = CopyParams(accuracy_clamp=0.01)
        assert params.clamp_accuracy(0.0) == 0.01
        assert params.clamp_accuracy(1.0) == 0.99
        assert params.clamp_accuracy(-5.0) == 0.01

    def test_boundaries_exact(self):
        params = CopyParams(accuracy_clamp=0.05)
        assert params.clamp_accuracy(0.05) == 0.05
        assert params.clamp_accuracy(0.95) == 0.95


class TestExecutionValidation:
    """One validation point: the detector and both parallel-engine entry
    points reject a bad execution argument with the very message
    :func:`validate_execution` words."""

    BAD = [
        ({"executor": "gpu"}, "unknown executor 'gpu'; expected one of"),
        ({"reduce": "sum"}, "unknown reduce mode 'sum'; expected one of"),
        ({"n_partitions": 0}, "n_partitions must be >= 1, got 0"),
        ({"executor": "remote"}, "requires backend='numpy'"),
    ]

    @pytest.mark.parametrize("kwargs, message", BAD)
    def test_function_and_callers_agree(
        self, kwargs, message, example, example_probabilities, example_accuracies
    ):
        from repro.core import InvertedIndex, SingleRoundDetector, detect
        from repro.core.params import validate_execution
        from repro.parallel import detect_hybrid_parallel, detect_index_parallel

        params = CopyParams(backend="python")
        args = {"n_partitions": 2, "executor": "serial", "reduce": "flat", **kwargs}
        with pytest.raises(ValueError) as expected:
            validate_execution(params, **args)
        assert message in str(expected.value)
        world = (example, example_probabilities, example_accuracies, params)
        index = InvertedIndex.build(*world)
        callers = [
            lambda: detect_hybrid_parallel(*world, index, **args),
            lambda: detect_index_parallel(*world, index, **args),
            lambda: SingleRoundDetector(params, "hybrid", **args),
            lambda: detect(*world, **args),
        ]
        for call in callers:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)

    def test_unknown_backend_is_rejected_by_the_params(self):
        """The backend has one home — ``CopyParams`` — and it validates."""
        with pytest.raises(ValueError, match="backend must be one of"):
            CopyParams(backend="gpu")
