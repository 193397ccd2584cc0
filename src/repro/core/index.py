"""The specialized inverted index of Section III (Definition 3.2).

Each entry corresponds to a value ``D.v`` provided by **at least two**
sources and carries

* ``probability`` — ``P(D.v)``, the current truth probability;
* ``score`` — ``M-hat(D.v)``, the maximum possible contribution of sharing
  the value (Proposition 3.1);
* ``providers`` — the sources providing ``D.v``.  By construction a source
  appears in at most one entry per data item.

Entries are processed in an order chosen by :class:`EntryOrdering`
(the paper's default and best performer is ``BY_CONTRIBUTION`` —
decreasing score).  The low-score *tail* ``E-bar`` — the maximal set of
lowest-score entries whose scores sum to less than ``theta_ind`` — is
always processed last: source pairs whose shared values all lie in the
tail cannot accumulate enough evidence for copying and are never opened
(Section III, "Optimizing with the index").

The index also precomputes the shared-item counts ``l(S1, S2)`` for every
co-occurring source pair (:func:`count_shared_items_for`) and a suffix-maximum
score array so the BOUND family can read ``M`` — an upper bound on the
contribution of any unscanned entry — in O(1) under *any* processing
order (for ``BY_CONTRIBUTION`` this is simply the next entry's score,
Proposition 3.4).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Sequence

from ..data import Dataset
from .maxscore import max_score
from .params import CopyParams

PairCounts = dict[tuple[int, int], int]


def _pair_key(a: int, b: int) -> tuple[int, int]:
    """Canonical (sorted) key for an unordered source pair."""
    return (a, b) if a < b else (b, a)


def count_shared_items(dataset: Dataset) -> PairCounts:
    """Count shared items ``l(S1, S2)`` for every overlapping source pair.

    The python oracle of the ``l(S1, S2)`` counters.  The naive approach
    intersects claim sets per pair (O(|S|^2 * items)); the paper points
    to set-similarity-join techniques instead (its reference [1]: Arasu,
    Ganti & Kaushik, VLDB 2006).  This is the standard inverted-list
    join: scan items, and for each item bump a counter for every pair of
    its providers.  Total cost is ``sum_D k_D^2 / 2`` where ``k_D`` is
    the number of sources providing item ``D`` — proportional to the
    number of *actual* overlaps rather than the number of source pairs,
    which is exactly the asymptotic win the set-similarity-join
    literature targets for sparse data.

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


def count_shared_items_for(dataset: Dataset, params: CopyParams) -> PairCounts:
    """``l(S1, S2)`` by ``params.backend``'s counter (identical counts)."""
    if params.backend == "numpy":
        from .kernel import count_shared_items_columnar

        return count_shared_items_columnar(dataset, params.pair_layout)
    return count_shared_items(dataset)


class EntryOrdering(enum.Enum):
    """Processing order for non-tail index entries (Section VI-C)."""

    BY_CONTRIBUTION = "by_contribution"  #: decreasing M-hat score (paper default)
    BY_PROVIDER = "by_provider"  #: increasing number of providers
    RANDOM = "random"  #: uniformly shuffled


@dataclass
class IndexEntry:
    """One inverted-index entry (Definition 3.2).

    Attributes:
        value_id: the dataset's interned ``(item, value)`` id.
        item_id: the data item the value belongs to.
        probability: ``P(D.v)`` used when the entry was (re)scored.
        score: ``M-hat(D.v)`` under that probability.
        providers: source ids providing the value (>= 2 of them).
    """

    value_id: int
    item_id: int
    probability: float
    score: float
    providers: list[int]


class InvertedIndex:
    """Scored inverted index over shared values, plus pair-level metadata.

    Attributes:
        entries: all entries in *processing order* — the chosen ordering
            over non-tail entries followed by the tail (score-descending).
            A ``"numpy"`` build holds columns instead and materialises
            this list (plain ``float`` / ``int`` / ``list[int]`` fields)
            only when it is read.
        tail_start: position of the first tail (``E-bar``) entry;
            ``entries[tail_start:]`` is the tail.
        shared_items: ``l(S1, S2)`` for every source pair sharing >= 1
            item, keyed by sorted id pairs: a dict from a ``"python"``
            build, the :class:`~repro.core.pairspace.PairValueMap`
            column table (the same mapping) from a ``"numpy"`` one.
        items_per_source: ``|D-bar(S)|`` per source id.
        suffix_max: ``suffix_max[i]`` is the maximum score among entries at
            positions ``>= i`` (``suffix_max[len(entries)] == 0.0``); the
            bound computations read ``M`` at position ``pos`` as
            ``suffix_max[pos + 1]``.
        provider_counts: providers per entry, in processing order.
        value_ids / item_ids / scores: per-entry arrays in processing
            order (``"numpy"`` builds only, ``None`` otherwise).
    """

    def __init__(
        self,
        entries: list[IndexEntry],
        tail_start: int,
        shared_items: PairCounts,
        items_per_source: list[int],
    ):
        self._entries = entries
        self.tail_start = tail_start
        self.shared_items = shared_items
        self.items_per_source = items_per_source
        self.suffix_max = self._compute_suffix_max(entries)
        self.provider_counts = [len(entry.providers) for entry in entries]
        self.value_ids = self.item_ids = self.scores = None
        self._columnar_cache = None

    @property
    def entries(self) -> list[IndexEntry]:
        """The entries as objects, built from the columns on first read."""
        if self._entries is None:
            cols = self._columnar_cache
            bounds = cols.offsets.tolist()
            flat = cols.providers.tolist()
            self._entries = [
                IndexEntry(value_id, item_id, probability, score, flat[start:end])
                for value_id, item_id, probability, score, start, end in zip(
                    self.value_ids.tolist(),
                    self.item_ids.tolist(),
                    cols.probs.tolist(),
                    self.scores.tolist(),
                    bounds,
                    bounds[1:],
                )
            ]
        return self._entries

    @staticmethod
    def _compute_suffix_max(entries: Sequence[IndexEntry]) -> list[float]:
        suffix = [0.0] * (len(entries) + 1)
        for i in range(len(entries) - 1, -1, -1):
            suffix[i] = max(entries[i].score, suffix[i + 1])
        return suffix

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
        params: CopyParams,
        ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
        rng: random.Random | None = None,
        shared_items: PairCounts | None = None,
    ) -> "InvertedIndex":
        """Build the index for a dataset under current probability estimates.

        Args:
            dataset: the claims.
            probabilities: ``P(D.v)`` per value id.
            accuracies: ``A(S)`` per source id.
            params: model parameters (for scoring and the tail threshold).
            ordering: processing order for non-tail entries.
            rng: random generator for ``EntryOrdering.RANDOM`` (a fixed
                seed is used if omitted, keeping runs reproducible).
            shared_items: precomputed ``l(S1, S2)`` counts to reuse.  The
                claims never change across fusion rounds, so iterative
                callers compute the counts once and pass them back in —
                the paper counts them "at index building time" with
                set-similarity-join techniques for the same reason.
        """
        if len(probabilities) != dataset.n_values:
            raise ValueError(
                f"need one probability per value "
                f"({len(probabilities)} != {dataset.n_values})"
            )
        if len(accuracies) != dataset.n_sources:
            raise ValueError(
                f"need one accuracy per source "
                f"({len(accuracies)} != {dataset.n_sources})"
            )
        if shared_items is None:
            shared_items = count_shared_items_for(dataset, params)
        if params.backend == "numpy":
            return cls._build_columnar(
                dataset, probabilities, accuracies, params, ordering, rng, shared_items
            )
        entries = []
        for value_id, providers in enumerate(dataset.providers):
            if len(providers) < 2:
                continue
            p_true = probabilities[value_id]
            entries.append(
                IndexEntry(
                    value_id=value_id,
                    item_id=dataset.value_item[value_id],
                    probability=p_true,
                    score=max_score(p_true, [accuracies[s] for s in providers], params),
                    providers=list(providers),
                )
            )

        main, tail = cls._split_tail(entries, params.theta_ind)
        cls._order_main(main, ordering, rng)
        ordered = main + tail
        return cls(
            entries=ordered,
            tail_start=len(main),
            shared_items=shared_items,
            items_per_source=list(dataset.items_per_source),
        )

    @classmethod
    def _build_columnar(
        cls, dataset, probabilities, accuracies, params, ordering, rng, shared_items
    ) -> "InvertedIndex":
        """:meth:`build` on the dataset's claim table: the same entries,
        order, tail and floats with no Python step per value.

        Scores come from the one M-hat scorer under numpy
        (:func:`repro.core.incremental_kernel.max_scores`, bit-equal to
        ``max_score``); every sort is a *stable* ``argsort`` of the key
        the reference sorts by and the tail sum is ``np.cumsum``'s left
        fold, so ties and the ``theta_ind`` cut land exactly where
        :meth:`_split_tail` / :meth:`_order_main` put them.
        """
        import numpy as np

        from ..data.columns import take_csr
        from .incremental_kernel import max_scores
        from .kernel import ColumnarEntries
        from .pairspace import PairValueMap

        table = dataset.columns
        offsets, providers = table.shared_offsets, table.shared_providers
        probs = np.asarray(probabilities, dtype=np.float64)[table.shared_values]
        scores = max_scores(probs, offsets, providers, accuracies, params)
        by_score = np.argsort(scores, kind="stable")
        reached = np.nonzero(np.cumsum(scores[by_score]) >= params.theta_ind)[0]
        tail_size = reached[0] if len(reached) else len(by_score)
        tail, main = by_score[:tail_size], np.sort(by_score[tail_size:])
        tail = tail[np.argsort(-scores[tail], kind="stable")]
        if ordering is EntryOrdering.RANDOM:
            shuffled = main.tolist()
            (rng or random.Random(0)).shuffle(shuffled)
            main = np.asarray(shuffled, dtype=np.int64)
        else:
            key = {
                EntryOrdering.BY_CONTRIBUTION: -scores,
                EntryOrdering.BY_PROVIDER: np.diff(offsets),
            }[ordering]
            main = main[np.argsort(key[main], kind="stable")]
        order = np.concatenate([main, tail])

        # The numpy kernels read the column table: a caller's dict is
        # flattened here, once; a table passes through.
        index = cls(
            [],
            len(main),
            PairValueMap.from_counts(shared_items),
            list(dataset.items_per_source),
        )
        offsets, providers = take_csr(offsets, providers, order)
        index._entries = None
        index._columnar_cache = ColumnarEntries(
            probs=probs[order],
            main=np.arange(len(order)) < len(main),
            offsets=offsets,
            providers=providers,
        )
        index.provider_counts = np.diff(offsets).tolist()
        index.value_ids = table.shared_values[order]
        index.item_ids = table.value_item[index.value_ids]
        index.scores = scores[order]
        index.suffix_max = np.maximum.accumulate(
            np.append(index.scores, 0.0)[::-1]
        )[::-1].tolist()
        return index

    @staticmethod
    def _split_tail(
        entries: list[IndexEntry], theta_ind: float
    ) -> tuple[list[IndexEntry], list[IndexEntry]]:
        """Split off ``E-bar``: lowest-score entries summing below theta_ind."""
        by_score = sorted(entries, key=lambda e: e.score)
        cumulative = 0.0
        tail_size = 0
        for entry in by_score:
            cumulative += entry.score
            if cumulative >= theta_ind:
                break
            tail_size += 1
        tail = by_score[:tail_size]
        tail_ids = {id(e) for e in tail}
        main = [e for e in entries if id(e) not in tail_ids]
        tail.sort(key=lambda e: -e.score)
        return main, tail

    @staticmethod
    def _order_main(
        main: list[IndexEntry],
        ordering: EntryOrdering,
        rng: random.Random | None,
    ) -> None:
        if ordering is EntryOrdering.BY_CONTRIBUTION:
            main.sort(key=lambda e: -e.score)
        elif ordering is EntryOrdering.BY_PROVIDER:
            main.sort(key=lambda e: len(e.providers))
        elif ordering is EntryOrdering.RANDOM:
            (rng or random.Random(0)).shuffle(main)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown ordering {ordering!r}")

    # ------------------------------------------------------------------
    # Columnar view (numpy backend)
    # ------------------------------------------------------------------
    def columnar_entries(self):
        """The entries as :class:`~repro.core.kernel.ColumnarEntries`.

        A ``"numpy"`` build *is* this table; a ``"python"`` build
        columnarizes its entry list on first call and caches the result
        for the index's lifetime (the entry list is frozen after
        construction — INCREMENTAL scores fresh lists beside it, never
        into it).
        """
        if self._columnar_cache is None:
            from .kernel import ColumnarEntries

            self._columnar_cache = ColumnarEntries.from_index(self)
        return self._columnar_cache

    def set_columnar_entries(self, cols) -> None:
        """Replace the cached columnar view (a shim: nothing in
        ``src/repro`` seeds an index any more — ``build`` under numpy
        assembles the view itself)."""
        self._columnar_cache = cols

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Total number of entries (main + tail)."""
        return len(self.suffix_max) - 1
