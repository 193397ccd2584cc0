"""PAIRWISE — the exhaustive baseline (Dong et al., VLDB 2009; Section II-B).

For every pair of sources, iterate over every data item they share,
accumulate the contribution scores ``C->`` and ``C<-`` (Eqs. 6 and 8), and
apply Eq. (2).  Complexity ``O(|D| |S|^2)`` per round — the bottleneck the
paper sets out to remove.

The implementation iterates the smaller claim set of each pair and probes
the larger one, which is the fastest exhaustive strategy available without
indexes; all of the paper's speed-ups are measured against this.

With ``params.backend == "numpy"`` the same totals are computed
columnarly: every multi-provider value contributes its provider-pair
triangle through the vectorized kernel, and the different-value penalty
``ln(1-s) * (l - n_same)`` is applied per pair from precomputed
shared-item counts.  The nested-loop path stays as the bit-exact
reference.
"""

from __future__ import annotations

from typing import Sequence

from ..data import Dataset
from .contribution import posterior, same_value_scores_both
from .params import CopyParams
from .result import CostCounter, DecisionView, DetectionResult, PairDecision


def detect_pairwise(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    shared_items=None,
) -> DetectionResult:
    """Run exhaustive pairwise copy detection.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        shared_items: precomputed ``l(S1, S2)`` counts to reuse (only
            consulted by the numpy backend; computed there if omitted).

    Returns:
        A :class:`DetectionResult` with a verdict for every pair of
        sources that shares at least one item.
    """
    if params.backend == "numpy":
        return _detect_pairwise_numpy(
            dataset, probabilities, accuracies, params, shared_items
        )
    cost = CostCounter()
    decisions: dict[tuple[int, int], PairDecision] = {}
    ln_diff = params.ln_one_minus_s
    n_sources = dataset.n_sources
    claims = dataset.claims

    for s1 in range(n_sources):
        claim1 = claims[s1]
        for s2 in range(s1 + 1, n_sources):
            claim2 = claims[s2]
            cost.pairs_considered += 1
            # Probe the smaller claim set against the larger.
            if len(claim2) < len(claim1):
                small, large = claim2, claim1
            else:
                small, large = claim1, claim2

            c_fwd = 0.0
            c_bwd = 0.0
            shared = 0
            for item_id, value_id in small.items():
                other_value = large.get(item_id)
                if other_value is None:
                    continue
                shared += 1
                cost.value_incidence()
                cost.score_update(2)
                if other_value == value_id:
                    fwd, bwd = same_value_scores_both(
                        probabilities[value_id], accuracies[s1], accuracies[s2], params
                    )
                    c_fwd += fwd
                    c_bwd += bwd
                else:
                    c_fwd += ln_diff
                    c_bwd += ln_diff

            if shared == 0:
                continue
            post = posterior(c_fwd, c_bwd, params)
            decisions[(s1, s2)] = PairDecision(
                c_fwd=c_fwd,
                c_bwd=c_bwd,
                posterior=post,
                copying=post.copying,
                early=False,
            )

    return DetectionResult(
        method="pairwise",
        n_sources=n_sources,
        decisions=decisions,
        cost=cost,
    )


def _detect_pairwise_numpy(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    shared_items=None,
) -> DetectionResult:
    """PAIRWISE via the vectorized kernel; verdicts match the item scan.

    A pair's score decomposes into the same-value triangle contributions
    (accumulated by the kernel over every multi-provider value) plus
    ``ln(1-s)`` per shared item with differing values — so the per-pair
    item probing of the reference loop reduces to one columnar scan and
    one penalty broadcast.
    """
    import numpy as np

    from .kernel import (
        ColumnarEntries,
        PairTable,
        count_shared_items_columnar,
        decide_pairs,
        scan_columnar,
    )
    from .pairspace import PairValueMap

    shared_items = (
        count_shared_items_columnar(dataset)
        if shared_items is None
        else PairValueMap.from_counts(shared_items)
    )
    n_sources = dataset.n_sources
    cols = ColumnarEntries.from_value_groups(dataset, probabilities)
    table = scan_columnar(cols, accuracies, params, n_sources)
    # Pairs sharing items but never a value still get decided (their
    # score is pure penalty); splice zero-score rows into the table.
    missing = np.setdiff1d(shared_items.keys, table.keys)
    if len(missing):
        zeros = PairTable(
            n_sources=n_sources,
            keys=missing,
            c_fwd=np.zeros(len(missing)),
            c_bwd=np.zeros(len(missing)),
            n_shared=np.zeros(len(missing), dtype=np.int64),
            saw_main=np.ones(len(missing), dtype=bool),
        )
        table = PairTable.merge([table, zeros])
    columns = decide_pairs(table, shared_items, params, require_main=False)
    total_shared = int(shared_items.column.sum())
    cost = CostCounter(
        computations=2 * total_shared,
        values_examined=total_shared,
        pairs_considered=n_sources * (n_sources - 1) // 2,
    )
    return DetectionResult(
        method="pairwise",
        n_sources=n_sources,
        decisions=DecisionView(columns),
        cost=cost,
    )
