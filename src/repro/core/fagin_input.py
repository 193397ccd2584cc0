"""FAGININPUT — building NRA's input lists for copy detection.

Section II-B of the paper sketches a top-k formulation: keep, for every
index entry, a list of the contribution scores of the source pairs sharing
the value (sorted descending), plus one list of accumulated
different-value penalties per pair; ``C->`` of a pair is then the sum of
its scores across all lists and NRA can find the most-copying pairs.

The catch — and the reason the paper rejects the approach — is that
*producing* these lists already requires computing the contribution of
every shared value for every pair, with none of INDEX/BOUND's skipping or
early termination, and it is unclear how to refresh the lists
incrementally across fusion rounds.  Table X therefore compares the
paper's detectors against just this construction step.

:func:`build_fagin_input` performs the construction (and, since every
score is in hand anyway, derives the same exact verdicts as INDEX at
negligible extra cost, so the baseline can participate in full fusion
runs).  Nothing here runs NRA itself: the paper times only the lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..data import Dataset
from .contribution import posterior, same_value_scores_both
from .index import InvertedIndex
from .params import CopyParams
from .result import CostCounter, DetectionResult, PairDecision

#: An ordered pair ``(copier, original)`` of source ids.
DirectedPair = tuple[int, int]


@dataclass
class FaginInput:
    """NRA input lists for the directed score ``C->``.

    Attributes:
        value_lists: one list per index entry, each holding
            ``((copier, original), contribution)`` sorted descending; both
            directions of every undirected pair appear.
        diff_list: one entry per sharing pair and direction with the
            accumulated penalty ``ln(1-s) * (l - n)``, sorted descending.
        result: exact verdicts derived during construction (identical to
            INDEX output).
    """

    value_lists: list[list[tuple[DirectedPair, float]]]
    diff_list: list[tuple[DirectedPair, float]]
    result: DetectionResult


def build_fagin_input(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
) -> FaginInput:
    """Materialise the NRA lists (the FAGININPUT baseline's whole cost)."""
    if index is None:
        index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    cost = CostCounter()
    value_lists: list[list[tuple[DirectedPair, float]]] = []
    totals: dict[tuple[int, int], list[float]] = {}

    for entry in index.entries:
        p_true = entry.probability
        providers = entry.providers
        rows: list[tuple[DirectedPair, float]] = []
        k = len(providers)
        for i in range(k):
            s1 = providers[i]
            for j in range(i + 1, k):
                s2 = providers[j]
                cost.value_incidence()
                cost.score_update(2)
                fwd, bwd = same_value_scores_both(
                    p_true, accuracies[s1], accuracies[s2], params
                )
                rows.append(((s1, s2), fwd))
                rows.append(((s2, s1), bwd))
                bucket = totals.setdefault((s1, s2), [0.0, 0.0, 0])
                bucket[0] += fwd
                bucket[1] += bwd
                bucket[2] += 1
        rows.sort(key=lambda row: -row[1])
        value_lists.append(rows)

    ln_diff = params.ln_one_minus_s
    diff_list: list[tuple[DirectedPair, float]] = []
    decisions: dict[tuple[int, int], PairDecision] = {}
    for pair, (c_fwd, c_bwd, n_shared) in totals.items():
        cost.pairs_considered += 1
        cost.score_update(2)
        n_diff = index.shared_items[pair] - n_shared
        penalty = n_diff * ln_diff
        if n_diff:
            diff_list.append(((pair[0], pair[1]), penalty))
            diff_list.append(((pair[1], pair[0]), penalty))
        total_fwd = c_fwd + penalty
        total_bwd = c_bwd + penalty
        post = posterior(total_fwd, total_bwd, params)
        decisions[pair] = PairDecision(
            c_fwd=total_fwd,
            c_bwd=total_bwd,
            posterior=post,
            copying=post.copying,
            early=False,
        )
    diff_list.sort(key=lambda row: -row[1])

    result = DetectionResult(
        method="fagininput",
        n_sources=dataset.n_sources,
        decisions=decisions,
        cost=cost,
    )
    return FaginInput(value_lists=value_lists, diff_list=diff_list, result=result)
