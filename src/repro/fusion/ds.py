"""Dempster-Shafer truth finding with credibility-weighted evidence.

An alternative to the ACCU softmax (:mod:`repro.fusion.accu`) that makes
two things first-class which ACCU cannot express:

* **Explicit uncertainty** — a source's claim is a *simple support
  function* over the item's frame of discernment Θ (the true-value
  candidates): mass ``m({v}) = w`` on its claimed value and
  ``m(Θ) = 1 - w`` on "I don't know".  The support
  ``w = credibility * (1 - uncertainty) * (1 - 1/odds) * I`` combines
  the source's accuracy odds ``n A / (1 - A)`` (exactly ACCU's vote
  odds), its :class:`~repro.fusion.credibility.CredibilityModel` weight,
  a global ``uncertainty`` reserve, and — when a detection result is
  given — the same ACCUCOPY independence discount ``I`` that deflates a
  later copier's vote by the detected copy probability.
* **Conflict** — Dempster's rule surfaces the mass ``K`` assigned to
  contradictory evidence per item, a diagnostic ACCU silently
  renormalises away.  ``K`` rides on every
  :class:`~repro.fusion.pipeline.RoundRecord` and in ``explain``.

Because every focal element is a singleton or Θ, Dempster combination
has a closed form — no ``2^|Θ|`` enumeration.  With ``q_S = 1 - w_S``
and per-value log-sums ``L_v = sum_{S in sup(v)} ln q_S``,
``L_item = sum_v L_v``:

    m̂({v}) = exp(L_item - L_v) * (1 - exp(L_v))
    m̂(Θ)   = exp(L_item)
    T       = m̂(Θ) + sum_v m̂({v})        K = 1 - T

Conflict compounds with witness count (Zadeh's classic observation):
a dense item with a dozen confident providers split across two values
has ``T ~ q^6`` — far below any fixed epsilon while the *ratios*
between masses stay perfectly well-conditioned.  The implementation
therefore renormalises scale-free, exactly the way ACCU's softmax
max-shifts its vote counts: with ``shift = min_v L_v``,

    sm_v = exp(shift - L_v) - exp(shift)       (= exp(shift) m̂_v / m̂(Θ))
    st   = exp(shift)                          (= exp(shift) m̂(Θ) / m̂(Θ))
    D    = st + sum_v sm_v                     (>= 1/2 always)

and the pignistic pick ``BetP(v) = (sm_v + st/|Θ|) / D`` with
``|Θ| = max(n + 1, k)`` — the same domain convention as ACCU's ``n``
unobserved false values — never divides by a vanishing quantity and
per-item probabilities sum to at most 1, exactly like ACCU's.  The
true total mass ``T = exp(L_item - shift) * D`` is only needed for the
conflict diagnostic ``K = 1 - T``.

**ACCU parity.**  With flat credibility, zero uncertainty and no
detection, ``1/q_S`` is the vote odds, so
``1 - exp(L_v) = 1 - exp(-vote_count(v))`` is strictly increasing in
ACCU's vote count whenever every source's odds exceed 1; the per-item
``exp(L_item - L_v)`` and pignistic Θ-share are shared across the
item's values, so the ranking — and therefore the fused truth under
:func:`~repro.fusion.accu.choose_values` — matches ACCU's.

Total conflict — enough maximally-confident contradicting witnesses
that ``T`` underflows to float zero, i.e. ``K = 1`` to full double
precision — raises :class:`TotalConflictError` naming the item instead
of reporting verdicts from evidence the float format can no longer
weigh; the caller should lower credibility or raise the uncertainty
reserve.  (Dempster's rule is undefined at exact total conflict; the
``MAX_SUPPORT`` clamp keeps ``T`` mathematically positive, so float
underflow is the only way to reach it.)

Two implementations with the library's standard lockstep contract: the
pure-Python reference :func:`ds_value_probabilities` and the vectorized
:func:`ds_value_probabilities_columnar` over
:class:`~repro.data.columns.ClaimColumns`, conformance-checked
against each other at 1e-9 per round on bit-identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..core.params import CopyParams
from ..core.result import DetectionResult
from .accu import independence_weights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data import Dataset
    from ..data.columns import ClaimColumns

#: Hard cap on a single claim's support mass: no witness is ever fully
#: certain, which keeps every ``ln(1 - w)`` finite and the combined
#: mass mathematically positive.  Reaching *float* total conflict
#: therefore takes dozens of maximally-boosted contradicting sources —
#: exactly the configuration :class:`TotalConflictError` diagnoses.
MAX_SUPPORT = 1.0 - 1e-9


class TotalConflictError(ValueError):
    """Dempster combination hit total conflict (``K = 1``) on an item.

    Raised when an item's combined mass underflows to float zero —
    every surviving ratio between its masses is below double precision,
    so renormalising would report verdicts the evidence can no longer
    weigh.  (High-but-representable conflict is *not* an error: dense
    items routinely reach ``K ~ 1 - 1e-19`` and the scale-free
    renormalisation handles them exactly; see the module docstring.)
    The offending item id is carried in :attr:`item_id`; the fix is a
    lower credibility boost or a non-zero uncertainty reserve.
    """

    def __init__(self, item_id: int, total_mass: float):
        super().__init__(
            f"total conflict on item {item_id}: combined mass "
            f"underflowed to {total_mass:.3e} (K = 1 at full double "
            f"precision); lower the credibility boost or raise "
            f"ds_uncertainty"
        )
        self.item_id = item_id
        self.total_mass = total_mass


@dataclass
class DSRound:
    """One Dempster-Shafer combination pass over every item.

    Attributes:
        probabilities: pignistic ``BetP`` per value id (list from the
            reference loop, ``np.ndarray`` from the columnar kernel);
            an item's entries sum to at most 1, like ACCU's.
        conflict: Dempster conflict degree ``K in [0, 1]`` per
            *represented* item id — the per-item diagnostic surfaced on
            :class:`~repro.fusion.pipeline.RoundRecord`.
    """

    probabilities: "Sequence[float]"
    conflict: dict[int, float]


def support_masses(
    accuracies: Sequence[float],
    params: CopyParams,
    credibility: Sequence[float] | None = None,
    uncertainty: float = 0.0,
) -> list[float]:
    """Per-source claim support ``w_S`` before any copy discount.

    ``w = credibility * (1 - uncertainty) * (1 - 1/odds)`` with
    ``odds = n A / (1 - A)`` (accuracy clamped as everywhere else),
    clipped into ``[0, MAX_SUPPORT]``.  A source whose odds do not beat
    an unobserved domain value (``odds <= 1``) supports nothing.
    """
    scale = 1.0 - uncertainty
    masses = []
    for source_id, accuracy in enumerate(accuracies):
        a = params.clamp_accuracy(accuracy)
        odds = params.n * a / (1.0 - a)
        w = (1.0 - 1.0 / odds) * scale
        if credibility is not None:
            w *= credibility[source_id]
        masses.append(min(max(w, 0.0), MAX_SUPPORT))
    return masses


def ds_value_probabilities(
    dataset: "Dataset",
    accuracies: Sequence[float],
    params: CopyParams,
    detection: DetectionResult | None = None,
    credibility: Sequence[float] | None = None,
    uncertainty: float = 0.0,
) -> DSRound:
    """The reference Dempster-Shafer combination (pure-Python loops).

    Args:
        dataset: the claims.
        accuracies: current ``A(S)`` per source.
        params: model parameters (``n`` sizes the frame of discernment).
        detection: a detection result; a copier's mass is deflated by
            :func:`~repro.fusion.accu.independence_weights` before
            combination, exactly as ACCUCOPY discounts its votes.
        credibility: *effective* per-source credibility weights (see
            :meth:`~repro.fusion.credibility.CredibilityModel.effective`);
            ``None`` is the flat model.
        uncertainty: global mass reserve shifted from every claim onto
            Θ (``0 <= uncertainty < 1``).

    Returns:
        The round's :class:`DSRound` (pignistic probabilities per value
        id + conflict degree per represented item).

    Raises:
        TotalConflictError: an item's evidence is totally conflicting.
    """
    base = support_masses(accuracies, params, credibility, uncertainty)
    log_q = [0.0] * dataset.n_values
    for value_id, providers in enumerate(dataset.providers):
        if detection is not None and len(providers) >= 2:
            weights = independence_weights(providers, accuracies, detection, params)
        else:
            weights = None
        total = 0.0
        for position, source in enumerate(providers):
            w = base[source]
            if weights is not None:
                w = min(max(w * weights[position], 0.0), MAX_SUPPORT)
            total += math.log1p(-w)
        log_q[value_id] = total

    probabilities = [0.0] * dataset.n_values
    conflict: dict[int, float] = {}
    for item_id, values in enumerate(dataset.item_value_table()):
        if not values:
            continue
        l_item = sum(log_q[v] for v in values)
        shift = min(log_q[v] for v in values)
        e_shift = math.exp(shift)
        # Scale-free masses: sm_v = exp(shift) * m̂({v}) / m̂(Θ), so the
        # best-supported value's mass is ~1 and the denominator never
        # vanishes (see the module docstring).
        scaled = [math.exp(shift - log_q[v]) - e_shift for v in values]
        denom = e_shift + sum(scaled)
        total_mass = math.exp(l_item - shift) * denom
        if total_mass == 0.0:
            raise TotalConflictError(item_id, total_mass)
        conflict[item_id] = min(max(1.0 - total_mass, 0.0), 1.0)
        domain = max(params.n + 1, len(values))
        theta_share = e_shift / domain
        for value_id, mass in zip(values, scaled):
            probabilities[value_id] = (mass + theta_share) / denom
    return DSRound(probabilities=probabilities, conflict=conflict)


def ds_value_probabilities_columnar(
    cols: "ClaimColumns",
    accuracies,
    params: CopyParams,
    detection: DetectionResult | None = None,
    credibility: Sequence[float] | None = None,
    uncertainty: float = 0.0,
) -> DSRound:
    """Vectorized :func:`ds_value_probabilities` over a claim layout.

    Same math as the reference — per-provider supports, ``log1p`` sums
    per value, segment reductions per item over ``cols.item_order`` —
    with the ACCUCOPY discount coming from
    :func:`~repro.fusion.accu_kernel.independence_weight_stream`.
    Agrees with the reference within float re-association error
    (lockstep conformance at 1e-9).

    Raises:
        TotalConflictError: an item's evidence is totally conflicting.
    """
    import numpy as np

    from .accu_kernel import independence_weight_stream

    acc = np.asarray(accuracies, dtype=np.float64)
    a = np.clip(acc, params.accuracy_clamp, 1.0 - params.accuracy_clamp)
    odds = params.n * a / (1.0 - a)
    w_source = (1.0 - 1.0 / odds) * (1.0 - uncertainty)
    if credibility is not None:
        w_source = w_source * np.asarray(credibility, dtype=np.float64)
    w_source = np.clip(w_source, 0.0, MAX_SUPPORT)

    w = w_source[cols.prov_sources]
    if detection is not None:
        w = np.clip(
            w * independence_weight_stream(cols, acc, detection, params),
            0.0,
            MAX_SUPPORT,
        )
    log_q = np.bincount(
        cols.prov_value, weights=np.log1p(-w), minlength=cols.n_values
    )

    probabilities = np.zeros(cols.n_values)
    if cols.n_values == 0:
        return DSRound(probabilities=probabilities, conflict={})
    sorted_lq = log_q[cols.item_order]
    starts = cols.seg_starts[:-1]
    l_item = np.add.reduceat(sorted_lq, starts)
    shift = np.minimum.reduceat(sorted_lq, starts)
    e_shift = np.exp(shift)
    # Scale-free masses, same shift as the reference loop (module doc).
    scaled = np.exp(np.repeat(shift, cols.seg_sizes) - sorted_lq) - np.repeat(
        e_shift, cols.seg_sizes
    )
    denom = e_shift + np.add.reduceat(scaled, starts)
    total_mass = np.exp(l_item - shift) * denom
    conflicted = np.nonzero(total_mass == 0.0)[0]
    if len(conflicted):
        segment = int(conflicted[0])
        raise TotalConflictError(
            int(cols.seg_items[segment]), float(total_mass[segment])
        )
    domain = np.maximum(params.n + 1, cols.seg_sizes)
    theta_share = e_shift / domain
    probabilities[cols.item_order] = (
        scaled + np.repeat(theta_share, cols.seg_sizes)
    ) / np.repeat(denom, cols.seg_sizes)
    conflict_k = np.clip(1.0 - total_mass, 0.0, 1.0)
    conflict = dict(zip(cols.seg_items.tolist(), conflict_k.tolist()))
    return DSRound(probabilities=probabilities, conflict=conflict)
