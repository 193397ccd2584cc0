"""Set-overlap counting between sources (the paper's reference [1]).

Building the inverted index requires, for every pair of sources that
co-occur in at least one entry, the number of *data items* they share —
``l(S1, S2)`` in the paper.  The naive approach intersects claim sets per
pair (O(|S|^2 * items)); the paper points to set-similarity-join
techniques (Arasu, Ganti & Kaushik, VLDB 2006) instead.

We implement the standard inverted-list join: scan items, and for each
item bump a counter for every pair of its providers.  Total cost is
``sum_D k_D^2 / 2`` where ``k_D`` is the number of sources providing item
``D`` — proportional to the number of *actual* overlaps rather than the
number of source pairs, which is exactly the asymptotic win the
set-similarity-join literature targets for sparse data.
"""

from __future__ import annotations

from ..data import Dataset

PairCounts = dict[tuple[int, int], int]


def _pair_key(a: int, b: int) -> tuple[int, int]:
    """Canonical (sorted) key for an unordered source pair."""
    return (a, b) if a < b else (b, a)


def count_shared_items(dataset: Dataset) -> PairCounts:
    """Count shared items ``l(S1, S2)`` for every overlapping source pair.

    Returns a dict keyed by sorted source-id pairs; pairs sharing no item
    are absent (and every detector treats absence as "no evidence at all",
    i.e. trivially independent).
    """
    providers_by_item: list[list[int]] = [[] for _ in range(dataset.n_items)]
    for source_id, claim in enumerate(dataset.claims):
        for item_id in claim:
            providers_by_item[item_id].append(source_id)
    counts: PairCounts = {}
    for providers in providers_by_item:
        k = len(providers)
        if k < 2:
            continue
        for i in range(k):
            si = providers[i]
            for j in range(i + 1, k):
                key = _pair_key(si, providers[j])
                counts[key] = counts.get(key, 0) + 1
    return counts
