"""Columnar INCREMENTAL: the three-pass patch of Section V on arrays.

The numpy half of :mod:`repro.core.incremental`.  The Python loops there
stay the executable specification; this module performs the same round —
same categories, same passes, same floats — on a column table:

1. **State.**  :class:`ColumnarIncrementalState` keeps the booked pairs
   as sorted int64 keys plus aligned ``s1, s2, copying, c_base_fwd,
   c_base_bwd, decision_pos, n_after, n_total, l`` columns, taken from
   the arrays :meth:`repro.core.bound_kernel.EpochScan.finalize` already
   holds.  No per-pair object, no entry -> pairs map and no per-source
   position lists are built; ``records()`` is a lazy view for goldens
   and tests.  Entry references (``p_ref``, ``s_ref``) and source
   references (``a_ref``) are arrays; the index is read through its
   ``ColumnarEntries`` CSR, a source -> positions CSR and the sorted
   ``position * n_sources + source`` keys the CSR implies.  A tail
   re-open appends rows and re-sorts the columns.
2. **M-hat.**  :func:`max_scores` is Proposition 3.1 per entry: the
   provider accuracies' sorted extremes (``np.lexsort``; minimum,
   second, maximum, second-maximum with duplicates counted — what
   :func:`repro.core.maxscore.max_score`'s single pass finds), the same
   five candidate arguments, ``math.log`` per scalar, ``np.maximum``.
3. **Pass 1.**  The moved entries are expanded into entry-ordered
   incidence streams (:func:`repro.core.kernel.expand_incidences_ordered`,
   in blocks of :data:`repro.core.kernel.EPOCH_INCIDENCE_BUDGET`
   incidences), looked up in the booked keys with ``np.searchsorted``,
   and scattered: ``np.add.at`` for the big changes (stream order is the
   reference's ``+=`` order), ``np.bincount`` for the small-change
   counts.  The pessimistic re-check is array arithmetic in the
   reference's association order with the posterior of
   :func:`repro.core.bound_kernel.exact_posteriors`.
4. **Passes 2 and 3.**  A pair's shared positions are enumerated by
   walking the shorter of its two sources' position lists and probing
   the ``(position, source)`` keys; per-pair sums are
   ``np.bincount(weights=)`` — a stream-order left fold from 0.0, like
   the reference's accumulators (never ``np.sum``/``reduceat``, whose
   pairwise association differs).

**Two arithmetic mirrors.**  The log arguments mirror what the
*reference INCREMENTAL* evaluates, not the bound scan:
:func:`repro.core.contribution.same_value_scores_both` computes
``q * (1 - a1) * (1 - a2) / n`` and ``(s * single) / denom``,
:func:`~repro.core.contribution.same_value_score` computes
``s * (single / denom)``, and neither equals
:func:`repro.core.kernel.score_incidence_args`' ``q * (1 / n) * ...`` in
the last bit.  IEEE ``+ - * /`` are correctly rounded, so the mirrored
arguments are identical to the scalar ones and ``math.log`` finishes the
job; decisions, ``changed_pairs``, :class:`~repro.core.result.CostCounter`,
:class:`~repro.core.incremental.RoundStats` and every stored float are
bit-identical to ``backend="python"``.
"""

from __future__ import annotations

from math import log
from typing import Sequence

import numpy as np

from . import bound_kernel
from .bound import PairBookkeeping
from .incremental import _NEGLIGIBLE, RoundStats, _PairRecord
from .index import InvertedIndex
from .kernel import (
    clamp_accuracies,
    expand_incidences_ordered,
    incidence_mass_bounds,
    shared_item_counts,
)
from .pairspace import (
    decode_pair_keys,
    decode_pairs,
    encode_pair_keys,
    member_rows,
)
from .params import CopyParams
from .result import (
    CostCounter,
    DecisionView,
    DetectionResult,
    PairColumns,
    PairRowView,
)


def _logs(args: np.ndarray) -> np.ndarray:
    """``math.log`` per element (``np.log``'s SIMD path can stray an ulp)."""
    return np.fromiter(map(log, args.tolist()), np.float64, count=args.size)


def _single(p: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Eq. (4), :func:`repro.core.contribution.pr_single`'s expression."""
    return p * acc + (1.0 - p) * (1.0 - acc)


def _independent(p: np.ndarray, a1: np.ndarray, a2: np.ndarray, n: int) -> np.ndarray:
    """Eq. (3), :func:`repro.core.contribution.pr_independent`'s expression."""
    return p * a1 * a2 + (1.0 - p) * (1.0 - a1) * (1.0 - a2) / n


def _scores_both(
    p: np.ndarray, a1: np.ndarray, a2: np.ndarray, params: CopyParams
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.core.contribution.same_value_scores_both` per element
    (accuracies already clamped)."""
    s = params.s
    denominator = _independent(p, a1, a2, params.n)
    fwd = _logs(1.0 - s + s * _single(p, a2) / denominator)
    bwd = _logs(1.0 - s + s * _single(p, a1) / denominator)
    return fwd, bwd


def max_scores(
    probs: np.ndarray,
    offsets: np.ndarray,
    providers: np.ndarray,
    accuracies: Sequence[float] | np.ndarray,
    params: CopyParams,
) -> np.ndarray:
    """``M-hat`` per entry of a provider CSR, bit-equal to ``max_score``.

    Args:
        probs: ``P(D.v)`` per entry.
        offsets: CSR offsets into ``providers`` (every entry has >= 2).
        providers: concatenated provider ids.
        accuracies: ``A(S)`` per source id (clamped here).
        params: model parameters.
    """
    n_entries = len(probs)
    if n_entries == 0:
        return np.empty(0)
    acc = clamp_accuracies(accuracies, params)[providers]
    row = np.repeat(np.arange(n_entries), np.diff(offsets))
    ranked = acc[np.lexsort((acc, row))]
    first, last = offsets[:-1], offsets[1:] - 1
    a_min, a_second = ranked[first], ranked[first + 1]
    a_max, a_second_max = ranked[last], ranked[last - 1]
    s = params.s
    best = None
    for copier, original in (
        (a_max, a_min),
        (a_second, a_min),
        (a_min, a_second),
        (a_min, a_max),
        (a_second_max, a_max),
    ):
        ratio = _single(probs, original) / _independent(
            probs, copier, original, params.n
        )
        score = _logs(1.0 - s + s * ratio)
        best = score if best is None else np.maximum(best, score)
    return best


def _record(
    s1, s2, copying, c_base_fwd, c_base_bwd, decision_pos, n_after, n_total, l  # noqa: E741
):
    """One row of the state as the reference's record object."""
    book = PairBookkeeping(
        copying=copying,
        early=False,
        c_base_fwd=c_base_fwd,
        c_base_bwd=c_base_bwd,
        decision_pos=decision_pos,
        n_before=n_total - n_after,
        n_after=n_after,
        l=l,
    )
    return _PairRecord(s1, s2, book)


#: Per-pair columns of the state, in ``_record``'s argument order.
_RECORD_COLUMNS = (
    "s1", "s2", "copying", "c_base_fwd", "c_base_bwd",
    "decision_pos", "n_after", "n_total", "l",
)


class ColumnarIncrementalState:
    """Everything INCREMENTAL carries between rounds, as arrays.

    The numpy twin of :class:`~repro.core.incremental.IncrementalState`:
    ``index``, ``history`` and ``reopen_level`` mean the same, the three
    reference vectors are arrays, and the per-pair records are the
    key-sorted columns named in :data:`_RECORD_COLUMNS` (``keys`` plus
    one attribute each).  :func:`~repro.core.incremental.incremental_round`
    hands a state of this type to :meth:`run_round`, so a numpy-prepared
    state is never walked by the Python loops.
    """

    def __init__(
        self,
        index: InvertedIndex,
        bookkeeping: PairRowView,
        accuracies: Sequence[float],
        params: CopyParams,
    ):
        self.index = index
        self.history: list[RoundStats] = []
        self.reopen_level = params.theta_ind
        self.n_sources = n_sources = len(accuracies)
        cols = self.cols = index.columnar_entries()
        n_entries = cols.n_entries
        self.value_ids = index.value_ids
        self.p_ref = cols.probs.copy()
        self.s_ref = index.scores.copy()
        self.a_ref = np.array(accuracies, dtype=np.float64)

        book = bookkeeping.columns
        self.keys = bookkeeping.keys
        self.s1, self.s2 = decode_pair_keys(self.keys)
        self.copying = book["copying"]
        self.c_base_fwd = book["c_base_fwd"]
        self.c_base_bwd = book["c_base_bwd"]
        self.decision_pos = book["decision_pos"]
        self.n_after = book["n_after"]
        self.n_total = book["n_before"] + book["n_after"]
        self.l = book["l"]

        # Entry position of every provider slot; providers are sorted
        # within an entry, so (position, source) keys ascend slot by slot
        # and a stable sort by source yields each source's positions in
        # ascending order.
        slot_pos = np.repeat(np.arange(n_entries), np.diff(cols.offsets))
        self._slot_keys = slot_pos * n_sources + cols.providers
        self._src_positions = slot_pos[np.argsort(cols.providers, kind="stable")]
        self._src_offsets = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cols.providers, minlength=n_sources),
            out=self._src_offsets[1:],
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def records(self) -> PairRowView:
        """``pair -> record`` over the columns, built only when read."""
        return PairRowView(
            self.keys,
            {name: getattr(self, name) for name in _RECORD_COLUMNS},
            _record,
        )

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def run_round(
        self,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
        params: CopyParams,
        rho_value: float,
        rho_accuracy: float,
    ) -> DetectionResult:
        """One incremental round; see
        :func:`repro.core.incremental.incremental_round`."""
        cols = self.cols
        n_entries = cols.n_entries
        ln_diff = params.ln_one_minus_s
        accs = np.asarray(accuracies, dtype=np.float64)
        p_now = np.asarray(probabilities, dtype=np.float64)[self.value_ids]
        a_ref = self.a_ref

        # --- categorize entries by score change on reference accuracies
        new_scores = max_scores(p_now, cols.offsets, cols.providers, a_ref, params)
        delta = new_scores - self.s_ref
        magnitude = np.abs(delta)
        moved = magnitude >= _NEGLIGIBLE
        big = moved & (magnitude >= rho_value)
        small_inc = moved & ~big & (delta > 0)
        small_dec = moved & ~big & ~small_inc
        delta_small_inc = float(delta[small_inc].max(initial=0.0))
        delta_small_dec = float(magnitude[small_dec].max(initial=0.0))
        n_big = int(big.sum())
        n_moved = int(moved.sum())
        stats = RoundStats(
            entries_big=n_big,
            entries_small=n_moved - n_big,
            entries_unchanged=n_entries - n_moved,
        )
        suffix_max_new = np.maximum.accumulate(np.append(new_scores, 0.0)[::-1])[::-1]
        m_credit = float(new_scores.min()) if n_entries else 0.0

        # --- tail re-opening (the builtin sum: the reference's fold) ---
        reopened = np.empty(0, dtype=np.int64)
        tail_sum = sum(new_scores[self.index.tail_start :].tolist())
        if tail_sum >= self.reopen_level:
            reopened = self._reopen_tail_pairs(new_scores, params)
            if rho_value > 0.0:
                self.reopen_level = tail_sum + 0.25 * rho_value
            stats.reopened_pairs = len(reopened)
        n_pairs = stats.pairs_total = len(self.keys)
        s1, s2 = self.s1, self.s2

        # --- big accuracy changes: full recompute in pass 3 ------------
        refresh = np.abs(accs - a_ref) >= rho_accuracy
        pending = refresh[s1] | refresh[s2]
        pending[member_rows(self.keys, reopened)[0]] = True
        stats.refresh_pairs = int(pending.sum()) - len(reopened)

        # --- pass 1: apply big changes, count small ones ---------------
        ref_acc = clamp_accuracies(a_ref, params)
        cur_acc = clamp_accuracies(accs, params)
        n_dec = np.zeros(n_pairs, dtype=np.int64)
        n_inc = np.zeros(n_pairs, dtype=np.int64)
        big_incidences = 0
        moved_pos = np.nonzero(moved)[0]
        bounds = incidence_mass_bounds(np.diff(cols.offsets)[moved_pos])
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            block_pos = moved_pos[b0:b1]
            block = cols.take(block_pos)
            row, islot, jslot = expand_incidences_ordered(
                block.offsets, block.providers
            )
            pos = block_pos[row]
            src1 = block.providers[islot]
            src2 = block.providers[jslot]
            rows, hit = member_rows(self.keys, encode_pair_keys(src1, src2))
            hit[hit] = ~pending[rows[hit]] & (
                pos[hit] < self.decision_pos[rows[hit]]
            )
            rows, pos, src1, src2 = rows[hit], pos[hit], src1[hit], src2[hit]
            is_big = big[pos]
            if is_big.any():
                at = rows[is_big]
                ra1, ra2 = ref_acc[src1[is_big]], ref_acc[src2[is_big]]
                at_pos = pos[is_big]
                old_fwd, old_bwd = _scores_both(self.p_ref[at_pos], ra1, ra2, params)
                new_fwd, new_bwd = _scores_both(p_now[at_pos], ra1, ra2, params)
                np.add.at(self.c_base_fwd, at, new_fwd - old_fwd)
                np.add.at(self.c_base_bwd, at, new_bwd - old_bwd)
                big_incidences += len(at)
            n_dec += np.bincount(rows[small_dec[pos]], minlength=n_pairs)
            n_inc += np.bincount(rows[small_inc[pos]], minlength=n_pairs)

        # --- pass 1 re-check under pessimistic estimates ---------------
        # The small-change drift per pair, by stored verdict: worst-case
        # decreases for copying pairs, increases for the others
        # (``c - x`` and ``c + (-x)`` are the same IEEE operation).
        was_copy = self.copying
        drift = np.where(
            was_copy, -(delta_small_dec * n_dec), delta_small_inc * n_inc
        )
        base_fwd = self.c_base_fwd + drift
        base_bwd = self.c_base_bwd + drift
        bound_pos = np.minimum(self.decision_pos + 1, n_entries)
        ceiling = suffix_max_new[bound_pos] * self.n_after
        work_fwd = np.where(was_copy, base_fwd, base_fwd + ceiling)
        work_bwd = np.where(was_copy, base_bwd, base_bwd + ceiling)
        independent, forward, backward = bound_kernel.exact_posteriors(
            work_fwd, work_bwd, params
        )
        confirmed = ~pending & ((independent <= 0.5) == was_copy)
        # Step 2 for copying pairs: minimum credit per after-decision entry.
        retry = np.nonzero(~pending & ~confirmed & was_copy & (self.n_after > 0))[0]
        if len(retry):
            credit = m_credit * self.n_after[retry]
            credit_fwd = work_fwd[retry] + credit
            credit_bwd = work_bwd[retry] + credit
            ind, fwd, bwd = bound_kernel.exact_posteriors(
                credit_fwd, credit_bwd, params
            )
            ok = ind <= 0.5
            at = retry[ok]
            work_fwd[at], work_bwd[at] = credit_fwd[ok], credit_bwd[ok]
            independent[at], forward[at], backward[at] = ind[ok], fwd[ok], bwd[ok]
            confirmed[at] = True
        stats.done_pass1 = int(confirmed.sum())
        copying = was_copy.copy()
        early = np.ones(n_pairs, dtype=bool)
        changed = np.zeros(n_pairs, dtype=bool)

        def exact_sums(rows, group, pos, store_acc):
            """Per pair of ``rows``: current-frame and storage-frame score
            sums over its ``(group, pos)`` shared incidences — stream-order
            left folds from 0.0, like the reference's accumulators."""
            at = rows[group]
            a1, a2 = s1[at], s2[at]
            p_store = np.where(big[pos], p_now[pos], self.p_ref[pos])
            cur = _scores_both(p_now[pos], cur_acc[a1], cur_acc[a2], params)
            ref = _scores_both(p_store, store_acc[a1], store_acc[a2], params)
            return [
                np.bincount(group, weights=stream, minlength=len(rows))
                for stream in (*cur, *ref)
            ]

        # --- pass 2: exact contributions after the old decision point --
        pass2 = np.nonzero(~pending & ~confirmed)[0]
        exact_incidences = 0
        if len(pass2):
            group, pos = self._shared_positions(pass2)
            keep = pos >= self.decision_pos[pass2[group]]
            group, pos = group[keep], pos[keep]
            exact_incidences += len(pos)
            after_fwd, after_bwd, ref_fwd, ref_bwd = exact_sums(
                pass2, group, pos, ref_acc
            )
            fwd2 = base_fwd[pass2] + after_fwd
            bwd2 = base_bwd[pass2] + after_bwd
            ind, fwd, bwd = bound_kernel.exact_posteriors(fwd2, bwd2, params)
            ok = (ind <= 0.5) == was_copy[pass2]
            at = pass2[ok]
            work_fwd[at], work_bwd[at] = fwd2[ok], bwd2[ok]
            independent[at], forward[at], backward[at] = ind[ok], fwd[ok], bwd[ok]
            changed[at] = True
            # Absorb the after-decision entries (reference frame) and
            # move the decision point to the end of the index.
            self.c_base_fwd[at] += ref_fwd[ok]
            self.c_base_bwd[at] += ref_bwd[ok]
            self.decision_pos[at] = n_entries
            self.n_after[at] = 0
            stats.done_pass2 = len(at)
            pending[pass2[~ok]] = True

        # --- pass 3: full exact rebuild --------------------------------
        rebuild = np.nonzero(pending)[0]
        if len(rebuild):
            group, pos = self._shared_positions(rebuild)
            exact_incidences += len(pos)
            # Storage frame after this round: current accuracy for
            # refreshed sources, reference otherwise.
            cur_fwd, cur_bwd, ref_fwd, ref_bwd = exact_sums(
                rebuild, group, pos, np.where(refresh, cur_acc, ref_acc)
            )
            penalty = (self.l[rebuild] - self.n_total[rebuild]) * ln_diff
            c_fwd = cur_fwd + penalty
            c_bwd = cur_bwd + penalty
            ind, fwd, bwd = bound_kernel.exact_posteriors(c_fwd, c_bwd, params)
            verdict = ind <= 0.5
            stats.flips = int((verdict != was_copy[rebuild]).sum())
            stats.done_pass3 = len(rebuild)
            work_fwd[rebuild], work_bwd[rebuild] = c_fwd, c_bwd
            independent[rebuild], forward[rebuild], backward[rebuild] = ind, fwd, bwd
            copying[rebuild] = verdict
            early[rebuild] = False
            changed[rebuild] = True
            self.c_base_fwd[rebuild] = ref_fwd + penalty
            self.c_base_bwd[rebuild] = ref_bwd + penalty
            self.decision_pos[rebuild] = n_entries
            self.n_after[rebuild] = 0
        self.copying = copying

        # --- advance references ----------------------------------------
        self.p_ref[big] = p_now[big]
        self.s_ref[big] = new_scores[big]
        if refresh.any():
            a_ref[refresh] = accs[refresh]
            touched = np.unique(
                self._slot_keys[refresh[cols.providers]] // self.n_sources
            )
            sub = cols.take(touched)
            self.s_ref[touched] = max_scores(
                self.p_ref[touched], sub.offsets, sub.providers, a_ref, params
            )

        self.history.append(stats)
        columns = PairColumns(
            self.keys,
            work_fwd,
            work_bwd,
            independent,
            forward,
            backward,
            copying=copying,
            early=early,
            # A copy: later rounds move the state's positions in place.
            decision_pos=self.decision_pos.copy(),
        )
        return DetectionResult(
            method="incremental",
            n_sources=self.n_sources,
            decisions=DecisionView(columns),
            cost=CostCounter(
                computations=4 * (big_incidences + exact_incidences),
                pairs_considered=n_pairs,
            ),
            changed_pairs=set(decode_pairs(self.keys[changed])),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _shared_positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shared entry positions of the pairs in ``rows``.

        Walks the shorter of each pair's two source position lists and
        keeps the positions the other source provides too (a probe into
        the sorted ``(position, source)`` keys).

        Returns:
            ``(group, position)`` streams: ``group`` indexes ``rows``,
            ascending; positions ascend within a group — the order the
            reference's list merge yields them in.
        """
        offsets = self._src_offsets
        s1, s2 = self.s1[rows], self.s2[rows]
        len1 = offsets[s1 + 1] - offsets[s1]
        len2 = offsets[s2 + 1] - offsets[s2]
        walk = np.where(len1 <= len2, s1, s2)
        probe = np.where(len1 <= len2, s2, s1)
        counts = np.minimum(len1, len2)
        group = np.repeat(np.arange(len(rows)), counts)
        starts = np.cumsum(counts) - counts
        within = np.arange(len(group)) - starts[group]
        pos = self._src_positions[offsets[walk][group] + within]
        _, hit = member_rows(self._slot_keys, pos * self.n_sources + probe[group])
        return group[hit], pos[hit]

    def _reopen_tail_pairs(
        self, new_scores: np.ndarray, params: CopyParams
    ) -> np.ndarray:
        """Book the unbooked tail pairs that could now reach ``theta_ind``.

        See :func:`repro.core.incremental._reopen_tail_pairs`; returns
        the opened keys after growing and re-sorting the columns.
        """
        cols = self.cols
        n_entries = cols.n_entries
        tail = np.arange(self.index.tail_start, n_entries)
        block = cols.take(tail)
        row, islot, jslot = expand_incidences_ordered(
            block.offsets, block.providers
        )
        keys = encode_pair_keys(block.providers[islot], block.providers[jslot])
        booked = member_rows(self.keys, keys)[1]
        keys, row = keys[~booked], row[~booked]
        candidates, group = np.unique(keys, return_inverse=True)
        reachable = np.bincount(
            group, weights=new_scores[tail[row]], minlength=len(candidates)
        )
        n_shared = np.bincount(group, minlength=len(candidates))
        # The penalty is <= 0, so only pairs whose own tail entries reach
        # theta_ind can qualify: look l(S1, S2) up for those alone.
        near = np.nonzero(reachable >= params.theta_ind)[0]
        l_shared = shared_item_counts(self.index.shared_items, candidates[near])
        ceiling = reachable[near] + (
            l_shared - n_shared[near].astype(np.float64)
        ) * params.ln_one_minus_s
        opened = ceiling >= params.theta_ind
        keys, n_total, l_shared = (
            candidates[near][opened], n_shared[near][opened], l_shared[opened]
        )
        if not len(keys):
            return keys
        n_new = len(keys)
        order = np.argsort(np.concatenate([self.keys, keys]), kind="stable")
        s1, s2 = decode_pair_keys(keys)
        fresh = {
            "keys": keys, "s1": s1, "s2": s2,
            "copying": np.zeros(n_new, dtype=bool),
            "c_base_fwd": np.zeros(n_new), "c_base_bwd": np.zeros(n_new),
            "decision_pos": np.full(n_new, n_entries, dtype=np.int64),
            "n_after": np.zeros(n_new, dtype=np.int64),
            "n_total": n_total, "l": l_shared,
        }
        for name, column in fresh.items():
            setattr(self, name, np.concatenate([getattr(self, name), column])[order])
        return keys
