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

Implementation note: the per-entry pair loop is the hottest code in the
library (it runs once per (pair, shared value) incidence), so Eq. (6) is
inlined with per-provider terms hoisted out of the inner loop and pair
state lives in flat lists keyed by a single integer.  The inlined math is
checked against :func:`repro.core.contribution.same_value_scores_both` by
the test suite.  With ``params.backend == "numpy"`` the whole scan is
instead delegated to the vectorized kernel (:mod:`repro.core.kernel`);
the Python loop below stays as the bit-exact reference.
"""

from __future__ import annotations

from math import log
from typing import Sequence

from ..data import Dataset
from .contribution import posterior
from .index import EntryOrdering, InvertedIndex
from .params import CopyParams
from .result import CostCounter, DecisionView, DetectionResult, PairDecision


def detect_index(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
) -> DetectionResult:
    """Run the INDEX algorithm.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        index: a prebuilt index to reuse (must have been built from the
            same dataset/probabilities/accuracies); built here if omitted.
        ordering: entry ordering when the index is built here.  INDEX's
            results are order-independent; the knob exists for the
            ordering ablation (Fig. 3).

    Returns:
        Verdicts for every pair co-occurring in a non-tail entry.
    """
    if index is None:
        index = InvertedIndex.build(
            dataset, probabilities, accuracies, params, ordering=ordering
        )
    if params.backend == "numpy":
        return _detect_index_numpy(dataset, accuracies, params, index)
    n_sources = dataset.n_sources
    clamp = params.clamp_accuracy
    acc = [clamp(a) for a in accuracies]
    s = params.s
    one_minus_s = 1.0 - s
    inv_n = 1.0 / params.n
    tail_start = index.tail_start

    # state[pair_key] = [c_fwd, c_bwd, n_shared]; pair_key = s1*n_sources+s2
    state: dict[int, list[float]] = {}
    incidences = 0

    for position, entry in enumerate(index.entries):
        in_tail = position >= tail_start
        p = entry.probability
        q = 1.0 - p
        q_over_n = q * inv_n
        providers = entry.providers
        k = len(providers)
        # Hoist per-provider terms of Eqs. (3)-(4).
        accs = [acc[src] for src in providers]
        nots = [1.0 - a for a in accs]
        singles = [p * a + q * (1.0 - a) for a in accs]
        for i in range(k):
            s1 = providers[i]
            a1 = accs[i]
            na1 = nots[i]
            ps1 = singles[i]
            base = s1 * n_sources
            for j in range(i + 1, k):
                key = base + providers[j]
                cell = state.get(key)
                if cell is None:
                    if in_tail:
                        continue  # never opened outside the tail: skip
                    cell = [0.0, 0.0, 0.0]
                    state[key] = cell
                incidences += 1
                denom = p * a1 * accs[j] + q_over_n * na1 * nots[j]
                cell[0] += log(one_minus_s + s * singles[j] / denom)
                cell[1] += log(one_minus_s + s * ps1 / denom)
                cell[2] += 1.0

    ln_diff = params.ln_one_minus_s
    decisions: dict[tuple[int, int], PairDecision] = {}
    shared_items = index.shared_items
    for key, (c_fwd, c_bwd, n_shared) in state.items():
        pair = (key // n_sources, key % n_sources)
        n_diff = shared_items[pair] - int(n_shared)
        c_fwd += n_diff * ln_diff
        c_bwd += n_diff * ln_diff
        post = posterior(c_fwd, c_bwd, params)
        decisions[pair] = PairDecision(
            c_fwd=c_fwd,
            c_bwd=c_bwd,
            posterior=post,
            copying=post.copying,
            early=False,
        )

    cost = CostCounter(
        computations=2 * incidences + 2 * len(state),
        values_examined=incidences,
        pairs_considered=len(state),
    )
    return DetectionResult(
        method="index",
        n_sources=n_sources,
        decisions=decisions,
        cost=cost,
    )


def _detect_index_numpy(
    dataset: Dataset,
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex,
) -> DetectionResult:
    """INDEX via the vectorized kernel; verdicts match the Python scan.

    Tail entries are scanned together with the rest; the skip rule is
    applied at reduction time by dropping pairs that never co-occur in a
    non-tail entry — equivalent to the sequential rule because the tail
    is processed last, so a pair is "already opened" at a tail entry
    exactly when some non-tail entry contains it.
    """
    from .kernel import decide_pairs, scan_columnar

    n_sources = dataset.n_sources
    cols = index.columnar_entries()
    table = scan_columnar(cols, accuracies, params, n_sources)
    columns = decide_pairs(table, index.shared_items, params, require_main=True)
    # Mirror the Python scan's accounting: incidences of never-opened
    # (tail-only) pairs are skipped, not counted.
    kept_incidences = int(table.n_shared[table.saw_main].sum())
    cost = CostCounter(
        computations=2 * kept_incidences + 2 * len(columns),
        values_examined=kept_incidences,
        pairs_considered=len(columns),
    )
    return DetectionResult(
        method="index",
        n_sources=n_sources,
        decisions=DecisionView(columns),
        cost=cost,
    )
