"""Evidence explanations: *why* was a pair judged to be copying?

Copy detection verdicts carry real-world weight (the paper motivates
"protecting the rights of data providers"), so a production library must
be able to justify them.  :func:`explain_pair` recomputes a pair's
evidence item by item and returns a structured breakdown — every shared
value with its probability and directed contributions, the count of
disagreements and their penalty, and the resulting posterior — which the
CLI renders for ``detect --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..data import Dataset
from .contribution import CopyPosterior, posterior, same_value_scores_both
from .params import CopyParams
from .result import DetectionResult, PairDecision, PairNotObservedError


@dataclass(frozen=True)
class EvidenceItem:
    """One shared data item's contribution to a pair's verdict."""

    item: str
    value_a: str
    value_b: str
    shared: bool
    probability: float | None  #: P(D.v) of the shared value (None if differing)
    c_fwd: float
    c_bwd: float
    #: Dempster conflict ``K`` of the item under a DS fusion run (None
    #: when fused with ACCU, or when no conflict map was supplied).
    conflict: float | None = None


@dataclass(frozen=True)
class PairExplanation:
    """Full evidence breakdown for one source pair.

    Attributes:
        source_a: first source's name.
        source_b: second source's name.
        items: per-item evidence, strongest forward contribution first.
        n_shared_values: items where the sources agree.
        n_different: items where both claim but disagree.
        c_fwd: total ``C(a -> b)``.
        c_bwd: total ``C(a <- b)``.
        posterior: the three-way verdict distribution.
        detected: the detector's stored verdict for the pair, when a
            :class:`~repro.core.result.DetectionResult` was supplied to
            :func:`explain_pair`; None otherwise.  May differ from the
            recomputed ``posterior`` when the stored verdict is an early
            (bound-based) one.
        credibility_a / credibility_b: each source's effective
            credibility weight under a DS fusion run — how much the
            :class:`~repro.fusion.credibility.CredibilityModel` scaled
            its evidence (None outside DS runs).
    """

    source_a: str
    source_b: str
    items: list[EvidenceItem]
    n_shared_values: int
    n_different: int
    c_fwd: float
    c_bwd: float
    posterior: CopyPosterior
    detected: PairDecision | None = None
    credibility_a: float | None = None
    credibility_b: float | None = None

    @property
    def copying(self) -> bool:
        """The binary verdict of the exhaustive posterior."""
        return self.posterior.copying

    def top_evidence(self, k: int = 5) -> list[EvidenceItem]:
        """The k strongest pieces of copying evidence."""
        return self.items[:k]

    def render(self, max_items: int = 10) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{self.source_a} vs {self.source_b}: "
            f"Pr(independent) = {self.posterior.independent:.4f} "
            f"({'COPYING' if self.copying else 'independent'})",
            f"  C-> = {self.c_fwd:.3f}   C<- = {self.c_bwd:.3f}   "
            f"shared values = {self.n_shared_values}, "
            f"disagreements = {self.n_different}",
        ]
        if self.credibility_a is not None and self.credibility_b is not None:
            lines.append(
                f"  credibility: {self.source_a} = {self.credibility_a:.3f}, "
                f"{self.source_b} = {self.credibility_b:.3f}"
            )
        for ev in self.items[:max_items]:
            conflict = "" if ev.conflict is None else f" [K={ev.conflict:.3f}]"
            if ev.shared:
                lines.append(
                    f"  + {ev.item} = {ev.value_a!r} "
                    f"(P={ev.probability:.3f}) -> {ev.c_fwd:+.3f}{conflict}"
                )
            else:
                lines.append(
                    f"  - {ev.item}: {ev.value_a!r} vs {ev.value_b!r} "
                    f"-> {ev.c_fwd:+.3f}{conflict}"
                )
        hidden = len(self.items) - max_items
        if hidden > 0:
            lines.append(f"  ... and {hidden} more items")
        return "\n".join(lines)


def explain_pair(
    dataset: Dataset,
    source_a: int,
    source_b: int,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    result: DetectionResult | None = None,
    credibility: Sequence[float] | None = None,
    conflict: Mapping[int, float] | None = None,
) -> PairExplanation:
    """Break down the evidence between two sources item by item.

    Args:
        dataset: the claims.
        source_a: first source id.
        source_b: second source id (distinct from ``source_a``).
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        result: optionally, the detection run whose verdict is being
            explained.  When given, the detector's stored decision is
            attached as :attr:`PairExplanation.detected` — and a pair
            the run never observed (no shared scored value; possible
            under both dense and sparse ``pair_layout``) raises
            :class:`~repro.core.result.PairNotObservedError` instead of
            leaking a raw ``KeyError``/``IndexError`` from the decision
            lookup or slot decode.
        credibility: effective per-source credibility weights of a DS
            fusion run (:attr:`~repro.fusion.FusionResult.credibility`);
            surfaces the pair's weights on the explanation.
        conflict: per-item Dempster conflict degrees of a DS run
            (:meth:`~repro.fusion.FusionResult.final_conflict`);
            annotates each shared item's evidence with its ``K``.

    Raises:
        ValueError: if the two ids coincide or are out of range.
        PairNotObservedError: ``result`` was given but never opened the
            pair.
    """
    if source_a == source_b:
        raise ValueError("cannot explain a source against itself")
    for source in (source_a, source_b):
        if not 0 <= source < dataset.n_sources:
            raise ValueError(f"source id {source} out of range")

    detected = None
    if result is not None:
        detected = result.decision_for(source_a, source_b)
        if detected is None:
            raise PairNotObservedError(source_a, source_b, result.method)

    ln_diff = params.ln_one_minus_s
    claims_a = dataset.claims[source_a]
    claims_b = dataset.claims[source_b]
    items: list[EvidenceItem] = []
    c_fwd = c_bwd = 0.0
    n_shared = n_diff = 0
    for item_id, value_a in claims_a.items():
        value_b = claims_b.get(item_id)
        if value_b is None:
            continue
        item_name = dataset.item_names[item_id]
        item_conflict = None if conflict is None else conflict.get(item_id)
        if value_a == value_b:
            p_true = probabilities[value_a]
            fwd, bwd = same_value_scores_both(
                p_true, accuracies[source_a], accuracies[source_b], params
            )
            items.append(
                EvidenceItem(
                    item=item_name,
                    value_a=dataset.value_label[value_a],
                    value_b=dataset.value_label[value_b],
                    shared=True,
                    probability=p_true,
                    c_fwd=fwd,
                    c_bwd=bwd,
                    conflict=item_conflict,
                )
            )
            c_fwd += fwd
            c_bwd += bwd
            n_shared += 1
        else:
            items.append(
                EvidenceItem(
                    item=item_name,
                    value_a=dataset.value_label[value_a],
                    value_b=dataset.value_label[value_b],
                    shared=False,
                    probability=None,
                    c_fwd=ln_diff,
                    c_bwd=ln_diff,
                    conflict=item_conflict,
                )
            )
            c_fwd += ln_diff
            c_bwd += ln_diff
            n_diff += 1

    items.sort(key=lambda ev: -ev.c_fwd)
    return PairExplanation(
        source_a=dataset.source_names[source_a],
        source_b=dataset.source_names[source_b],
        items=items,
        n_shared_values=n_shared,
        n_different=n_diff,
        c_fwd=c_fwd,
        c_bwd=c_bwd,
        posterior=posterior(c_fwd, c_bwd, params),
        detected=detected,
        credibility_a=None if credibility is None else float(credibility[source_a]),
        credibility_b=None if credibility is None else float(credibility[source_b]),
    )
