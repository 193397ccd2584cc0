"""Contribution scores (Eqs. 3-8) and the copying posterior (Eq. 2)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    CopyParams,
    different_value_score,
    no_copy_probability,
    posterior,
    pr_independent,
    pr_single,
    same_value_score,
    same_value_scores_both,
)
from repro.core import contribution
from repro.core.contribution import exact_posteriors
from tests.strategies import accuracies, probabilities


class TestEquation3:
    def test_known_value_from_example_2_1(self):
        """Example 2.1 denominator: .01*.2*.2 + .99*.8*.8/50."""
        value = pr_independent(0.01, 0.2, 0.2, 50)
        assert value == pytest.approx(0.01 * 0.04 + 0.99 * 0.64 / 50)

    @given(p=probabilities, a1=accuracies, a2=accuracies)
    def test_is_probability(self, p, a1, a2):
        value = pr_independent(p, a1, a2, 50)
        assert 0.0 < value < 1.0

    @given(p=probabilities, a1=accuracies, a2=accuracies)
    def test_symmetric(self, p, a1, a2):
        assert pr_independent(p, a1, a2, 50) == pytest.approx(
            pr_independent(p, a2, a1, 50)
        )


class TestEquation4:
    def test_known_value(self):
        assert pr_single(0.01, 0.2) == pytest.approx(0.01 * 0.2 + 0.99 * 0.8)

    @given(p=probabilities, a=accuracies)
    def test_is_probability(self, p, a):
        assert 0.0 < pr_single(p, a) < 1.0


class TestSameValueScore:
    def test_example_2_1(self, params):
        """Sharing NJ.Atlantic (P=.01) between two .2-accuracy sources: 3.89."""
        assert same_value_score(0.01, 0.2, 0.2, params) == pytest.approx(3.89, abs=0.01)

    def test_example_3_3_table_iii(self, params):
        """NJ.Atlantic's index score 4.12 comes from the (S4, S3) pair."""
        assert same_value_score(0.01, 0.4, 0.2, params) == pytest.approx(4.12, abs=0.01)

    @given(p=probabilities, a1=accuracies, a2=accuracies)
    def test_nonnegative(self, p, a1, a2):
        """Sharing a value is never evidence against copying (Section II)."""
        params = CopyParams()
        assert same_value_score(p, a1, a2, params) >= 0.0

    @given(
        a1=st.floats(min_value=0.05, max_value=0.95),
        a2=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_decreasing_in_probability(self, a1, a2):
        """Sharing a *false* value is stronger evidence ([6], restated in II-A).

        The claim needs non-degenerate accuracies: below ``1/(n+1)`` a
        source is so error-prone that sharing a *true* value becomes the
        stronger signal, flipping the monotonicity (hypothesis found the
        counterexample at accuracy 0.016 with n = 50).
        """
        params = CopyParams()
        low = same_value_score(0.05, a1, a2, params)
        high = same_value_score(0.95, a1, a2, params)
        assert low >= high

    @given(p=probabilities, a1=accuracies, a2=accuracies)
    def test_both_matches_single(self, p, a1, a2):
        params = CopyParams()
        fwd, bwd = same_value_scores_both(p, a1, a2, params)
        assert fwd == pytest.approx(same_value_score(p, a1, a2, params))
        assert bwd == pytest.approx(same_value_score(p, a2, a1, params))


class TestDifferentValueScore:
    def test_is_ln_one_minus_s(self, params):
        assert different_value_score(params) == pytest.approx(math.log(0.2))

    def test_negative(self, params):
        assert different_value_score(params) < 0.0


class TestPosterior:
    def test_example_2_1_copying(self, params):
        """C-> = C<- = 11.58 gives Pr(indep) = .00004."""
        assert no_copy_probability(11.58, 11.58, params) == pytest.approx(
            0.00004, abs=1e-5
        )

    def test_example_2_1_independent(self, params):
        """C-> = C<- = .04 gives Pr(indep) = .79."""
        assert no_copy_probability(0.04, 0.04, params) == pytest.approx(0.79, abs=0.01)

    def test_zero_scores_give_prior(self, params):
        """With no evidence the posterior equals the prior beta/(beta+2 alpha)."""
        expected = params.beta / (params.beta + 2 * params.alpha)
        assert no_copy_probability(0.0, 0.0, params) == pytest.approx(expected)

    def test_overflow_safe(self, params):
        """Eq. (2) must survive scores far beyond exp overflow (~709)."""
        post = posterior(5000.0, 4000.0, params)
        assert post.independent == pytest.approx(0.0, abs=1e-12)
        assert post.forward == pytest.approx(1.0, abs=1e-12)

    def test_overflow_safe_negative(self, params):
        post = posterior(-5000.0, -5000.0, params)
        assert post.independent == pytest.approx(1.0, abs=1e-12)

    @given(
        c_fwd=st.floats(min_value=-200, max_value=200),
        c_bwd=st.floats(min_value=-200, max_value=200),
    )
    def test_sums_to_one(self, c_fwd, c_bwd):
        params = CopyParams()
        post = posterior(c_fwd, c_bwd, params)
        assert post.independent + post.forward + post.backward == pytest.approx(1.0)
        assert post.independent >= 0 and post.forward >= 0 and post.backward >= 0

    def test_copying_decision_boundary(self, params):
        """Copying iff Pr(indep) <= .5; theta_cp on one side forces it."""
        post = posterior(params.theta_cp, -100.0, params)
        assert post.independent <= 0.5 + 1e-12
        assert post.copying

    def test_monotone_in_scores(self, params):
        low = no_copy_probability(1.0, 1.0, params)
        high = no_copy_probability(2.0, 2.0, params)
        assert high < low


def _tie(params: CopyParams) -> list[float]:
    """Scores around the one where ``ln(alpha) + c`` meets ``ln(beta)``."""
    c = math.log(params.beta) - math.log(params.alpha)
    return [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]


#: Scores from deep underflow (every exp argument below ~-745 is 0.0)
#: to far past exp overflow, with the signed zeros.
_SCORES = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([0.0, -0.0, -800.0, -745.2, 709.8, 1e5, -1e5]),
)


class TestExactPosteriors:
    """The array Eq. (2) — every NumPy kernel's and the snapshot store's
    load — is the scalar reference bit for bit."""

    @given(
        alpha=st.floats(min_value=0.001, max_value=0.499),
        scores=st.lists(st.tuples(_SCORES, _SCORES), max_size=24),
    )
    def test_equals_the_scalar_posterior_bit_for_bit(self, alpha, scores):
        params = CopyParams(alpha=alpha)
        near = _tie(params)
        # Three-way and two-way ties at the prior, each beside a drawn score.
        scores = scores + [(a, b) for a in near for b in near]
        scores += [(a, c) for a in near for c, _ in scores[:4]]
        c_fwd, c_bwd = (np.array(column) for column in zip(*scores))
        got = np.stack(exact_posteriors(c_fwd, c_bwd, params), axis=1)
        want = np.array([tuple(posterior(f, b, params)) for f, b in scores])
        assert got.tobytes() == want.tobytes()

    def test_the_tie_is_exercised(self, params):
        """At the paper's alpha one score puts all three exp arguments
        at exactly 0.0, so the test above reaches the three-way tie."""
        log_alpha, log_beta = math.log(params.alpha), math.log(params.beta)
        assert any(log_alpha + c == log_beta for c in _tie(params))
        near = np.array(_tie(params))
        independent, _, _ = exact_posteriors(near, near, params)
        assert 1.0 / 3.0 in independent.tolist()

    def test_holds_under_a_compensated_sum(self, monkeypatch):
        """Since Python 3.12 the builtin ``sum`` compensates float sums
        (Neumaier); the reference must add plainly, as the kernel does.
        At alpha = 0.2 and scores (0, 0) the two sums differ by an ulp."""

        def compensated(values):
            total = fix = 0.0
            for x in values:
                t = total + x
                fix += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + fix

        params = CopyParams(alpha=0.2)
        exps = [math.exp(math.log(params.alpha) - math.log(params.beta))] * 2
        assert compensated([1.0, *exps]) != (1.0 + exps[0]) + exps[1]
        monkeypatch.setattr(contribution, "sum", compensated, raising=False)
        got = np.stack(exact_posteriors(np.zeros(1), np.zeros(1), params), axis=1)
        assert got.tobytes() == np.array([tuple(posterior(0.0, 0.0, params))]).tobytes()

    def test_an_empty_table(self, params):
        columns = exact_posteriors(np.empty(0), np.empty(0), params)
        assert [len(column) for column in columns] == [0, 0, 0]
