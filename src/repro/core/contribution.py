"""Per-item contribution scores and the copying posterior (Eqs. 2-8).

All copy detectors accumulate, for an ordered pair of sources
``(S1, S2)``, the log-likelihood-ratio scores

    C-> = sum_D ln Pr(Phi_D | S1 -> S2) / Pr(Phi_D | S1 _|_ S2)
    C<- = sum_D ln Pr(Phi_D | S1 <- S2) / Pr(Phi_D | S1 _|_ S2)

over the data items ``D`` the two sources share.  A shared item where both
provide the same value contributes a positive score that grows as the
value's truth probability shrinks (sharing a false value is strong
evidence of copying); a shared item with different values contributes the
constant ``ln(1-s) < 0``.

This module is the single home of those formulas; every algorithm
(PAIRWISE, INDEX, BOUND, INCREMENTAL, the fusion loop) calls into it so
that a change to the probabilistic model stays in one place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import CopyParams


def pr_independent(p_true: float, acc1: float, acc2: float, n: int) -> float:
    """Eq. (3): probability two independent sources provide the same value.

    ``P(D.v) * A(S1) * A(S2)`` covers the case the shared value is true;
    ``(1 - P(D.v)) * (1-A(S1)) * (1-A(S2)) / n`` the case it is one of the
    ``n`` uniformly-distributed false values.
    """
    return p_true * acc1 * acc2 + (1.0 - p_true) * (1.0 - acc1) * (1.0 - acc2) / n


def pr_single(p_true: float, acc: float) -> float:
    """Eq. (4): probability of observing a source's value on an item.

    ``Pr(Phi_D(S))`` — the source provides the observed value either as a
    truth (probability ``A(S)``) or as a falsehood (``1 - A(S)``), weighted
    by the value's truth probability.
    """
    return p_true * acc + (1.0 - p_true) * (1.0 - acc)


def same_value_score(
    p_true: float,
    acc_copier: float,
    acc_original: float,
    params: CopyParams,
) -> float:
    """Eq. (6): contribution of a shared value to ``C(copier -> original)``.

    ``C->(D) = ln(1 - s + s * Pr(Phi_D(S2)) / Pr(Phi_D | S1 _|_ S2))``
    where ``S1`` is the hypothesised copier and ``S2`` the hypothesised
    original.  The score is always ``>= 0`` and grows as ``p_true``
    shrinks: sharing an improbable value is strong evidence of copying.

    Args:
        p_true: ``P(D.v)`` — probability the shared value is true.
        acc_copier: accuracy of the hypothesised copier ``S1``.
        acc_original: accuracy of the hypothesised original ``S2``.
        params: model parameters.
    """
    a1 = params.clamp_accuracy(acc_copier)
    a2 = params.clamp_accuracy(acc_original)
    denominator = pr_independent(p_true, a1, a2, params.n)
    ratio = pr_single(p_true, a2) / denominator
    return math.log(1.0 - params.s + params.s * ratio)


def same_value_scores_both(
    p_true: float,
    acc1: float,
    acc2: float,
    params: CopyParams,
) -> tuple[float, float]:
    """Both directed contributions for a shared value, sharing the Eq. (3) term.

    Returns ``(C->(D), C<-(D))`` for the pair ``(S1, S2)`` with accuracies
    ``(acc1, acc2)``.  Slightly cheaper than two :func:`same_value_score`
    calls because the independent-observation denominator is common.
    """
    a1 = params.clamp_accuracy(acc1)
    a2 = params.clamp_accuracy(acc2)
    denominator = pr_independent(p_true, a1, a2, params.n)
    fwd = math.log(1.0 - params.s + params.s * pr_single(p_true, a2) / denominator)
    bwd = math.log(1.0 - params.s + params.s * pr_single(p_true, a1) / denominator)
    return fwd, bwd


def different_value_score(params: CopyParams) -> float:
    """Eq. (8): contribution of a shared item with differing values."""
    return params.ln_one_minus_s


class CopyPosterior(NamedTuple):
    """Posterior over the three hypotheses for a source pair (Eq. 1-2)."""

    independent: float  #: Pr(S1 _|_ S2 | Phi)
    forward: float  #: Pr(S1 -> S2 | Phi): S1 copies from S2
    backward: float  #: Pr(S1 <- S2 | Phi): S2 copies from S1

    @property
    def copying(self) -> bool:
        """The paper's binary decision: copying iff ``Pr(_|_) <= 0.5``."""
        return self.independent <= 0.5


def posterior(c_fwd: float, c_bwd: float, params: CopyParams) -> CopyPosterior:
    """Eq. (2) evaluated stably from the accumulated scores.

    ``Pr(_|_ | Phi) = 1 / (1 + (alpha/beta) (e^{C->} + e^{C<-}))``.  The
    exponentials can overflow for strongly-copying pairs (hundreds of
    shared false values), so the three-way posterior is computed in log
    space with the usual max-shift trick.
    """
    log_terms = (
        math.log(params.beta),
        math.log(params.alpha) + c_fwd,
        math.log(params.alpha) + c_bwd,
    )
    shift = max(log_terms)
    exps = [math.exp(t - shift) for t in log_terms]
    # Not ``sum``, which compensates since Python 3.12: the kernel adds plainly.
    total = (exps[0] + exps[1]) + exps[2]
    return CopyPosterior(
        independent=exps[0] / total,
        forward=exps[1] / total,
        backward=exps[2] / total,
    )


def exact_posteriors(
    c_fwd: np.ndarray, c_bwd: np.ndarray, params: CopyParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. (2) per pair, bit-equal to :func:`posterior`: the scalar's IEEE
    arithmetic vectorized in its order, and ``math.exp`` (NumPy's SIMD exp
    can stray by an ulp) only where its argument is nonzero: the max-shift
    leaves one of each pair's three at exactly 0.0, whose exp is 1.0."""
    log_alpha = math.log(params.alpha)
    log_beta = math.log(params.beta)
    t1 = log_alpha + c_fwd
    t2 = log_alpha + c_bwd
    shift = np.maximum(np.maximum(t1, t2), log_beta)
    terms = np.stack((log_beta - shift, t1 - shift, t2 - shift))
    shifted = terms != 0.0
    args = memoryview(terms[shifted])  # yields floats: no list of them
    terms.fill(1.0)
    terms[shifted] = np.fromiter(map(math.exp, args), np.float64, len(args))
    e0, e1, e2 = terms
    terms /= (e0 + e1) + e2
    return tuple(terms)


def no_copy_probability(c_fwd: float, c_bwd: float, params: CopyParams) -> float:
    """Convenience wrapper returning only ``Pr(S1 _|_ S2 | Phi)``."""
    return posterior(c_fwd, c_bwd, params).independent
