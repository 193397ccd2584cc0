"""INDEX — copy detection driven by the inverted index (Section III).

INDEX scans the index in processing order and maintains exact accumulated
scores for every pair of sources it encounters:

1. For each entry outside the tail ``E-bar`` and each pair of providers in
   the entry, add the entry's contribution to ``C->`` / ``C<-`` and bump
   the shared-value count ``n(S1, S2)``.
2. For tail entries, do the same but only for pairs already opened —
   pairs whose shared values all sit in the tail can never reach the
   copying region and are skipped outright.
3. After the scan, add the different-value penalty
   ``ln(1-s) * (l(S1,S2) - n(S1,S2))`` to every opened pair and apply
   Eq. (2).

INDEX produces *exactly* the same verdicts as PAIRWISE for every opened
pair (Proposition 3.5); skipped pairs are provably independent.  Its win
comes from never touching the (typically vast) majority of pairs that
share nothing, and from touching shared values once instead of per-pair
item scans.

Sequential INDEX is the partitioned engine's map step
(:func:`scan_share`) over one share of every position, finished by
:func:`finish_index`, which applies step 2's skip rule after the scan —
equivalent, because the tail is processed last, so a pair is "already
opened" at a tail entry exactly when some non-tail entry contains it.
Under ``backend="numpy"`` a share is scanned by
:func:`repro.core.kernel.scan_columnar`; the Python loop stays the
bit-exact reference.
"""

from __future__ import annotations

from math import log
from typing import Sequence

from ..data import Dataset
from .contribution import posterior
from .index import InvertedIndex
from .kernel import decide_pairs, scan_columnar
from .params import CopyParams
from .result import CostCounter, DetectionResult, PairDecision

#: A python-backend share's partial, per pair:
#: ``[c_fwd, c_bwd, n_shared, saw_main]``.
Partial = dict[tuple[int, int], list[float]]


def detect_index(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
) -> DetectionResult:
    """Run the INDEX algorithm.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        index: a prebuilt index to reuse (must have been built from the
            same dataset/probabilities/accuracies); built here, in the
            default order, if omitted.

    Returns:
        Verdicts for every pair co-occurring in a non-tail entry.
    """
    if index is None:
        index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    partial = scan_share(
        index, range(index.n_entries), accuracies, params, dataset.n_sources
    )
    return finish_index(partial, index, params, dataset.n_sources, "index")


def scan_share(
    index: InvertedIndex,
    positions: Sequence[int],
    accuracies: Sequence[float],
    params: CopyParams,
    n_sources: int,
):
    """Map step: Eq. (6)'s contributions over one share of index positions.

    Returns a :data:`Partial` under the python backend, a
    :class:`~repro.core.kernel.PairTable` under numpy.  Every pair seen
    in the share is accumulated, tail-only ones included; the skip rule
    is :func:`finish_index`'s.
    """
    if params.backend == "numpy":
        cols = index.columnar_entries()
        if positions != range(cols.n_entries):
            cols = cols.take(positions)
        return scan_columnar(cols, accuracies, params, n_sources)
    clamp = params.clamp_accuracy
    acc = [clamp(a) for a in accuracies]
    s = params.s
    one_minus_s = 1.0 - s
    inv_n = 1.0 / params.n
    entries = index.entries
    tail_start = index.tail_start
    partial: Partial = {}
    for position in positions:
        entry = entries[position]
        p = entry.probability
        q = 1.0 - p
        q_over_n = q * inv_n
        providers = entry.providers
        k = len(providers)
        # Hoist per-provider terms of Eqs. (3)-(4).
        accs = [acc[src] for src in providers]
        nots = [1.0 - a for a in accs]
        singles = [p * a + q * (1.0 - a) for a in accs]
        main_flag = 0.0 if position >= tail_start else 1.0
        for i in range(k):
            s1 = providers[i]
            a1 = accs[i]
            na1 = nots[i]
            ps1 = singles[i]
            for j in range(i + 1, k):
                pair = (s1, providers[j])
                denom = p * a1 * accs[j] + q_over_n * na1 * nots[j]
                fwd = log(one_minus_s + s * singles[j] / denom)
                bwd = log(one_minus_s + s * ps1 / denom)
                cell = partial.get(pair)
                if cell is None:
                    partial[pair] = [fwd, bwd, 1.0, main_flag]
                else:
                    cell[0] += fwd
                    cell[1] += bwd
                    cell[2] += 1.0
                    if main_flag:
                        cell[3] = 1.0
    return partial


def decide_pair(
    c_fwd: float, c_bwd: float, n_shared: int, l_shared: int, params: CopyParams
) -> PairDecision:
    """Exact verdict for one pair from its accumulated shared-value scores.

    Applies the different-value penalty ``ln(1-s) * (l - n)`` for the
    ``l_shared - n_shared`` items the pair shares with differing values,
    then Eq. (2).
    """
    penalty = (l_shared - n_shared) * params.ln_one_minus_s
    c_fwd += penalty
    c_bwd += penalty
    post = posterior(c_fwd, c_bwd, params)
    return PairDecision(
        c_fwd=c_fwd, c_bwd=c_bwd, posterior=post, copying=post.copying, early=False
    )


def finish_index(
    merged, index: InvertedIndex, params: CopyParams, n_sources: int, method: str
) -> DetectionResult:
    """INDEX's verdicts and accounting from the merged partials.

    Opens only the pairs seen in a non-tail entry, applies
    :func:`decide_pair`'s penalty and Eq. (2) to each, and counts the
    paper's cost: the opened pairs' incidences, two score updates per
    incidence plus two per opened pair.

    Args:
        merged: a :data:`Partial`, a :class:`~repro.core.kernel.PairTable`,
            or None when nothing was scanned.
        index: the scanned index (its ``l(S1, S2)`` counts).
        params: model parameters.
        n_sources: the world's source count.
        method: the result's method name.
    """
    decisions = {}
    incidences = 0
    if isinstance(merged, dict):
        shared_items = index.shared_items
        for pair, (c_fwd, c_bwd, n_shared, saw_main) in merged.items():
            if saw_main:
                incidences += int(n_shared)
                decisions[pair] = decide_pair(
                    c_fwd, c_bwd, int(n_shared), shared_items[pair], params
                )
    elif merged is not None:
        decisions = decide_pairs(
            merged, index.shared_items, params, require_main=True
        ).decisions()
        incidences = int(merged.n_shared[merged.saw_main].sum())
    cost = CostCounter(
        computations=2 * incidences + 2 * len(decisions),
        values_examined=incidences,
        pairs_considered=len(decisions),
    )
    return DetectionResult(
        method=method, n_sources=n_sources, decisions=decisions, cost=cost
    )
