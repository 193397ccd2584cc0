"""INCREMENTAL — iterative copy detection without starting over (Section V).

After the second fusion round, value probabilities and source accuracies
change only slightly, and so do copy decisions.  INCREMENTAL therefore
keeps per-pair state between rounds and *patches* it instead of
recomputing:

* The index structure (entries, providers, processing order, shared-item
  counts) is frozen after the preparation round — the underlying claims
  never change across rounds, only the probabilities do.
* Every entry carries *reference* values: the probability ``P_old`` and
  score used the last time its contribution was folded into pair scores.
  Each round, the entry's score change is computed against the reference
  (on reference accuracies, isolating the value-probability change, as the
  paper prescribes) and classified as big or small by the threshold
  ``rho_value``; sources are classified by ``rho_accuracy``.
* Stored pair scores ``C-hat`` live entirely in the reference frame:
  contributions of shared entries before the pair's decision point at
  reference probabilities/accuracies, plus the exact (static)
  different-value penalty.  Big changes are applied exactly (and the
  reference advances); small changes are never folded in — they are
  covered transiently each round by a pessimistic bulk estimate
  (``Delta-rho`` per small-changed shared entry), so the stored score's
  drift stays bounded by the rho thresholds.

Each round runs up to three passes over the index (Fig. 1 of the paper):

1. **Pass 1** applies big score changes exactly, counts small-changed
   shared entries, and re-checks every pair's decision under pessimistic
   estimates (for a copying pair: small decreases at worst-case magnitude,
   increases and after-decision entries ignored, then a minimum-score
   credit ``m`` per after-decision entry; symmetrically for no-copying
   pairs with the maximum-score bound ``M``).  Almost all pairs
   re-confirm here (Table VIII: 86-99%).
2. **Pass 2** resolves pairs whose verdict now depends on the entries
   after their old decision point, by computing those contributions
   exactly; resolved pairs absorb them and their decision point moves to
   the end of the index.
3. **Pass 3** fully recomputes the remaining ambiguous pairs — including
   every pair touching a source whose accuracy drifted by at least
   ``rho_accuracy`` since its reference ("big accuracy change" pairs,
   which the paper recomputes from scratch).

Deviations from the paper's step ordering, chosen for storage consistency
and documented in DESIGN.md: big *increases* are applied in pass 1
together with big decreases (the paper defers favourable changes to its
second pass), and pass 3 performs a full exact rebuild rather than
entry-wise patching of small changes (the paper's Example 5.1 does the
same "compute precise scores" for the ambiguous pair).  Both produce the
same verdicts; only the pass at which a rare pair terminates can differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from ..data import Dataset
from .bound import DEFAULT_HYBRID_THRESHOLD, PairBookkeeping, detect_hybrid
from .contribution import posterior, same_value_scores_both
from .index import InvertedIndex
from .maxscore import max_score
from .params import CopyParams
from .result import CostCounter, DetectionResult, PairDecision, PairRowView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .incremental_kernel import ColumnarIncrementalState

# Entry change categories.
_UNCHANGED = 0
_SMALL_INC = 1
_BIG_INC = 2
_SMALL_DEC = -1
_BIG_DEC = -2

#: Score changes below this magnitude are treated as no change at all.
_NEGLIGIBLE = 1e-9


class _PairRecord:
    """Cross-round state for one opened pair."""

    __slots__ = (
        "s1",
        "s2",
        "copying",
        "c_base_fwd",
        "c_base_bwd",
        "decision_pos",
        "n_after",
        "n_total",
        "l",
    )

    def __init__(self, s1: int, s2: int, book: PairBookkeeping) -> None:
        self.s1 = s1
        self.s2 = s2
        self.copying = book.copying
        self.c_base_fwd = book.c_base_fwd
        self.c_base_bwd = book.c_base_bwd
        self.decision_pos = book.decision_pos
        self.n_after = book.n_after
        self.n_total = book.n_before + book.n_after
        self.l = book.l


@dataclass
class RoundStats:
    """Per-round instrumentation for Table VIII."""

    pairs_total: int = 0
    done_pass1: int = 0
    done_pass2: int = 0
    done_pass3: int = 0
    refresh_pairs: int = 0  #: pairs recomputed due to big accuracy change
    reopened_pairs: int = 0  #: tail-only pairs opened after tail-score growth
    entries_big: int = 0
    entries_small: int = 0
    entries_unchanged: int = 0
    flips: int = 0  #: pairs whose decision changed this round


@dataclass
class IncrementalState:
    """Everything INCREMENTAL carries between rounds."""

    index: InvertedIndex
    p_ref: list[float]  #: reference probability per entry position
    s_ref: list[float]  #: reference M-hat score per entry position
    a_ref: list[float]  #: reference accuracy per source
    pairs: dict[tuple[int, int], _PairRecord]
    #: booked pairs per entry position, enumerated the first time pass 1
    #: needs them (``None`` until then — see ``_enumerate_booked_pairs``)
    entry_pairs: list[list[_PairRecord] | None]
    source_entries: list[list[int]]  #: entry positions touching each source
    history: list[RoundStats] = field(default_factory=list)
    #: tail-score-sum level above which unbooked tail pairs are
    #: re-examined (see ``_reopen_tail_pairs``); starts at theta_ind.
    reopen_level: float = float("inf")

    def records(self) -> dict[tuple[int, int], _PairRecord]:
        """The per-pair records by ``(s1, s2)`` — the accessor both
        backends' states share (a lazy view under numpy)."""
        return self.pairs


def prepare_incremental(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
) -> "tuple[DetectionResult, IncrementalState | ColumnarIncrementalState]":
    """Run the from-scratch (HYBRID) round and set up incremental state.

    Returns the round's detection result and the state that
    :func:`incremental_round` will evolve in subsequent rounds.  The
    state keeps ``index`` (built here, BY_CONTRIBUTION, when omitted).  With
    ``params.backend == "numpy"`` the preparation scan runs epoch-batched
    (:mod:`repro.core.bound_kernel`) and hands its bookkeeping over as
    columns; the state is then a
    :class:`~repro.core.incremental_kernel.ColumnarIncrementalState`,
    whose rounds are bit-identical to the ones this module's loops run
    on an :class:`IncrementalState`.
    """
    outcome = detect_hybrid(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        hybrid_threshold=hybrid_threshold,
        track_bookkeeping=True,
    )
    assert outcome.bookkeeping is not None
    index = outcome.index
    if isinstance(outcome.bookkeeping, PairRowView):  # the numpy scan's columns
        from .incremental_kernel import ColumnarIncrementalState

        return outcome.result, ColumnarIncrementalState(
            index, outcome.bookkeeping, accuracies, params
        )
    pairs = {
        key: _PairRecord(key[0], key[1], book)
        for key, book in outcome.bookkeeping.items()
    }
    source_entries: list[list[int]] = [[] for _ in range(dataset.n_sources)]
    for position, entry in enumerate(index.entries):
        for source in entry.providers:
            source_entries[source].append(position)
    state = IncrementalState(
        index=index,
        p_ref=[entry.probability for entry in index.entries],
        s_ref=[entry.score for entry in index.entries],
        a_ref=list(accuracies),
        pairs=pairs,
        entry_pairs=[None] * len(index.entries),
        source_entries=source_entries,
        reopen_level=params.theta_ind,
    )
    return outcome.result, state


def incremental_round(
    state: "IncrementalState | ColumnarIncrementalState",
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    rho_value: float = 1.0,
    rho_accuracy: float = 0.2,
) -> DetectionResult:
    """Run one incremental detection round against fresh probabilities.

    Args:
        state: cross-round state from :func:`prepare_incremental`
            (mutated); its type picks the implementation.
        probabilities: current ``P(D.v)`` per value id.
        accuracies: current ``A(S)`` per source id.
        params: model parameters.
        rho_value: big/small threshold on entry *score* change (the paper
            sets 1.0 from the largest observed gap).
        rho_accuracy: big/small threshold on source accuracy change
            (paper: 0.2).

    Returns:
        The round's :class:`DetectionResult`; per-pass statistics are
        appended to ``state.history``.
    """
    if not isinstance(state, IncrementalState):  # numpy-prepared: columnar
        return state.run_round(
            probabilities, accuracies, params, rho_value, rho_accuracy
        )
    index = state.index
    entries = index.entries
    n_entries = len(entries)
    cost = CostCounter()
    stats = RoundStats(pairs_total=len(state.pairs))
    ln_diff = params.ln_one_minus_s

    # ------------------------------------------------------------------
    # Categorize entries by score change on reference accuracies.
    # ------------------------------------------------------------------
    categories = [_UNCHANGED] * n_entries
    delta_small_dec = 0.0
    delta_small_inc = 0.0
    a_ref = state.a_ref
    # Fresh M-hat per entry on the reference accuracies; the processing
    # order of the last from-scratch round stays fixed.
    new_scores = [
        max_score(probabilities[e.value_id], [a_ref[s] for s in e.providers], params)
        for e in entries
    ]
    for pos, score_now in enumerate(new_scores):
        delta = score_now - state.s_ref[pos]
        magnitude = abs(delta)
        if magnitude < _NEGLIGIBLE:
            stats.entries_unchanged += 1
        elif magnitude >= rho_value:
            categories[pos] = _BIG_INC if delta > 0 else _BIG_DEC
            stats.entries_big += 1
        else:
            categories[pos] = _SMALL_INC if delta > 0 else _SMALL_DEC
            stats.entries_small += 1
            if delta > 0:
                delta_small_inc = max(delta_small_inc, delta)
            else:
                delta_small_dec = max(delta_small_dec, magnitude)

    # Suffix maxima of the fresh scores: M for no-copy pairs' after-entry
    # bound.  m = the smallest entry score, the paper's minimum-credit
    # estimate for a copying pair's after-entries.
    suffix_max_new = [0.0] * (n_entries + 1)
    for pos in range(n_entries - 1, -1, -1):
        suffix_max_new[pos] = max(new_scores[pos], suffix_max_new[pos + 1])
    m_credit = min(new_scores) if new_scores else 0.0

    # ------------------------------------------------------------------
    # Tail re-opening.  The prep round skipped pairs whose shared values
    # all sit in the tail because the tail's scores summed below
    # theta_ind; if probability drift pushes the tail's *current* score
    # sum past that level the argument weakens, so unbooked tail pairs
    # whose own entries could now reach theta_ind are opened (and exactly
    # rebuilt in pass 3).  The enumeration is gated on tail-sum growth —
    # a rho_value-scaled hysteresis keeps it rare under the default
    # configuration while rho_value = 0 re-checks on any growth.
    # ------------------------------------------------------------------
    reopened: set[tuple[int, int]] = set()
    tail_sum = sum(new_scores[index.tail_start :])
    if tail_sum >= state.reopen_level:
        reopened = _reopen_tail_pairs(state, new_scores, params)
        if rho_value > 0.0:
            state.reopen_level = tail_sum + 0.25 * rho_value
        stats.reopened_pairs = len(reopened)
        stats.pairs_total = len(state.pairs)

    # ------------------------------------------------------------------
    # Pairs with a big accuracy change get a full recompute (pass 3).
    # ------------------------------------------------------------------
    refresh_sources = {
        s
        for s in range(len(a_ref))
        if abs(accuracies[s] - a_ref[s]) >= rho_accuracy
    }
    pending_full: set[tuple[int, int]] = set(reopened)
    if refresh_sources:
        for key, record in state.pairs.items():
            if record.s1 in refresh_sources or record.s2 in refresh_sources:
                pending_full.add(key)
        stats.refresh_pairs = len(pending_full) - len(reopened)

    # ------------------------------------------------------------------
    # Pass 1: apply big changes, count small ones, re-check decisions.
    # ------------------------------------------------------------------
    small_dec_counts: dict[tuple[int, int], int] = {}
    small_inc_counts: dict[tuple[int, int], int] = {}
    for pos, entry in enumerate(entries):
        category = categories[pos]
        if category == _UNCHANGED:
            continue
        p_now = probabilities[entry.value_id]
        p_ref = state.p_ref[pos]
        records = state.entry_pairs[pos]
        if records is None:
            records = state.entry_pairs[pos] = _enumerate_booked_pairs(state, pos)
        for record in records:
            key = (record.s1, record.s2)
            if key in pending_full:
                continue
            if pos >= record.decision_pos:
                continue  # after-decision entries handled in pass 2
            if category in (_BIG_INC, _BIG_DEC):
                ra1 = a_ref[record.s1]
                ra2 = a_ref[record.s2]
                old_fwd, old_bwd = same_value_scores_both(p_ref, ra1, ra2, params)
                new_fwd, new_bwd = same_value_scores_both(p_now, ra1, ra2, params)
                cost.score_update(4)
                record.c_base_fwd += new_fwd - old_fwd
                record.c_base_bwd += new_bwd - old_bwd
            elif category == _SMALL_DEC:
                small_dec_counts[key] = small_dec_counts.get(key, 0) + 1
            else:  # _SMALL_INC
                small_inc_counts[key] = small_inc_counts.get(key, 0) + 1

    pass2: list[_PairRecord] = []
    decisions: dict[tuple[int, int], PairDecision] = {}
    for key, record in state.pairs.items():
        if key in pending_full:
            continue
        n_dec = small_dec_counts.get(key, 0)
        n_inc = small_inc_counts.get(key, 0)
        verdict = _check_pass1(
            record, n_dec, n_inc, delta_small_dec, delta_small_inc,
            m_credit, suffix_max_new, params,
        )
        if verdict is not None:
            stats.done_pass1 += 1
            decisions[key] = verdict
        else:
            pass2.append(record)

    # ------------------------------------------------------------------
    # Pass 2: exact contributions of entries after the old decision point.
    # Iterates only the affected pairs' own shared entries (intersection
    # of the two sources' entry lists) instead of rescanning the index.
    # ------------------------------------------------------------------
    # Pairs whose stored verdict/scores actually moved this round —
    # pass-2 resolutions and pass-3 rebuilds.  Pass-1 re-confirmations
    # are excluded on purpose: the verdict stands and the reported
    # scores are pessimistic estimates, not exact values (see
    # ``DetectionResult.changed_pairs``).
    changed_pairs: set[tuple[int, int]] = set()
    pass3: list[_PairRecord] = []
    if pass2:
        for record in pass2:
            key = (record.s1, record.s2)
            cur_fwd = cur_bwd = ref_fwd = ref_bwd = 0.0
            for pos in _shared_positions(state, record.s1, record.s2):
                if pos < record.decision_pos:
                    continue
                entry = entries[pos]
                p_now = probabilities[entry.value_id]
                is_big = categories[pos] in (_BIG_INC, _BIG_DEC)
                p_store = p_now if is_big else state.p_ref[pos]
                fwd, bwd = same_value_scores_both(
                    p_now, accuracies[record.s1], accuracies[record.s2], params
                )
                rf, rb = same_value_scores_both(
                    p_store, a_ref[record.s1], a_ref[record.s2], params
                )
                cost.score_update(4)
                cur_fwd += fwd
                cur_bwd += bwd
                ref_fwd += rf
                ref_bwd += rb
            n_dec = small_dec_counts.get(key, 0)
            n_inc = small_inc_counts.get(key, 0)
            verdict = _check_pass2(
                record, cur_fwd, cur_bwd, n_dec, n_inc,
                delta_small_dec, delta_small_inc, params,
            )
            if verdict is not None:
                stats.done_pass2 += 1
                decisions[key] = verdict
                changed_pairs.add(key)
                # Absorb the after-decision entries (reference frame) and
                # move the decision point to the end of the index.
                record.c_base_fwd += ref_fwd
                record.c_base_bwd += ref_bwd
                record.decision_pos = n_entries
                record.n_after = 0
            else:
                pass3.append(record)

    # ------------------------------------------------------------------
    # Pass 3: full exact rebuild for ambiguous / big-accuracy pairs.
    # ------------------------------------------------------------------
    rebuild = [state.pairs[key] for key in pending_full] + pass3
    if rebuild:
        # Storage frame after this round: current accuracy for refreshed
        # sources (their reference advances below), reference otherwise.
        a_store = [
            accuracies[s] if s in refresh_sources else a_ref[s]
            for s in range(len(a_ref))
        ]
        for record in rebuild:
            key = (record.s1, record.s2)
            cur_fwd = cur_bwd = ref_fwd = ref_bwd = 0.0
            for pos in _shared_positions(state, record.s1, record.s2):
                entry = entries[pos]
                p_now = probabilities[entry.value_id]
                is_big = categories[pos] in (_BIG_INC, _BIG_DEC)
                p_store = p_now if is_big else state.p_ref[pos]
                fwd, bwd = same_value_scores_both(
                    p_now, accuracies[record.s1], accuracies[record.s2], params
                )
                rf, rb = same_value_scores_both(
                    p_store, a_store[record.s1], a_store[record.s2], params
                )
                cost.score_update(4)
                cur_fwd += fwd
                cur_bwd += bwd
                ref_fwd += rf
                ref_bwd += rb
            penalty = (record.l - record.n_total) * ln_diff
            c_fwd = cur_fwd + penalty
            c_bwd = cur_bwd + penalty
            post = posterior(c_fwd, c_bwd, params)
            if post.copying != record.copying:
                stats.flips += 1
            record.copying = post.copying
            record.c_base_fwd = ref_fwd + penalty
            record.c_base_bwd = ref_bwd + penalty
            record.decision_pos = n_entries
            record.n_after = 0
            stats.done_pass3 += 1
            decisions[key] = PairDecision(
                c_fwd=c_fwd, c_bwd=c_bwd, posterior=post,
                copying=post.copying, early=False,
            )
            changed_pairs.add(key)

    # ------------------------------------------------------------------
    # Advance references.
    # ------------------------------------------------------------------
    for pos in range(n_entries):
        if categories[pos] in (_BIG_INC, _BIG_DEC):
            state.p_ref[pos] = probabilities[entries[pos].value_id]
            state.s_ref[pos] = new_scores[pos]
    if refresh_sources:
        for s in refresh_sources:
            state.a_ref[s] = accuracies[s]
        touched = {pos for s in refresh_sources for pos in state.source_entries[s]}
        for pos in touched:
            providers = entries[pos].providers
            state.s_ref[pos] = max_score(
                state.p_ref[pos], [state.a_ref[s] for s in providers], params
            )

    state.history.append(stats)
    cost.pairs_considered = len(state.pairs)
    return DetectionResult(
        method="incremental",
        n_sources=len(state.a_ref),
        decisions=decisions,
        cost=cost,
        changed_pairs=changed_pairs,
        decision_pos={key: rec.decision_pos for key, rec in state.pairs.items()},
    )


def _enumerate_booked_pairs(state: IncrementalState, pos: int) -> list[_PairRecord]:
    """The booked pairs among entry ``pos``'s providers, in triangle order.

    Costs ``C(k, 2)`` dict probes, which is why it runs on demand: a
    dense world's many-provider entries are exactly the saturated ones
    whose scores stop moving, and pass 1 never asks for an
    ``_UNCHANGED`` entry's pairs.  The caller keeps the list in
    ``state.entry_pairs`` so an entry is enumerated at most once.
    """
    providers = state.index.entries[pos].providers
    return [
        record
        for record in map(state.pairs.get, combinations(providers, 2))
        if record is not None
    ]


def _shared_positions(state: IncrementalState, s1: int, s2: int) -> list[int]:
    """Entry positions where both sources appear (their shared values).

    Linear merge of the two sources' (sorted) entry-position lists.
    """
    left = state.source_entries[s1]
    right = state.source_entries[s2]
    out: list[int] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def _reopen_tail_pairs(
    state: IncrementalState,
    new_scores: list[float],
    params: CopyParams,
) -> set[tuple[int, int]]:
    """Open not-yet-booked tail pairs that could now reach the copy region.

    An unbooked pair co-occurs only in tail entries, so its best possible
    score is the sum of its own tail entries' current scores *plus the
    exact (static) different-value penalty* ``(l - n_shared) ln(1-s)`` —
    both are cheap to accumulate during one tail enumeration.  Pairs whose
    ceiling stays below ``theta_ind`` remain provably independent and stay
    closed; this keeps re-opening from booking the mass of
    share-two-popular-values pairs that the index exists to skip.
    Qualifying pairs get a fresh record (with the no-copying verdict
    skipping implied) and are handed to the pass-3 rebuild for exact
    scoring; the record joins ``entry_pairs`` at every shared position
    whose list has already been enumerated — lists enumerated later find
    it through ``state.pairs``, so each list holds it exactly once.
    """
    index = state.index
    n_entries = len(index.entries)
    theta_ind = params.theta_ind
    ln_diff = params.ln_one_minus_s
    potential: dict[tuple[int, int], list[float]] = {}
    for pos in range(index.tail_start, n_entries):
        providers = index.entries[pos].providers
        score = new_scores[pos]
        k = len(providers)
        for i in range(k):
            s1 = providers[i]
            for j in range(i + 1, k):
                key = (s1, providers[j])
                if key in state.pairs:
                    continue
                cell = potential.get(key)
                if cell is None:
                    potential[key] = [score, 1.0]
                else:
                    cell[0] += score
                    cell[1] += 1.0

    shared_items = index.shared_items
    opened: set[tuple[int, int]] = set()
    for key, (reachable, n_shared) in potential.items():
        ceiling = reachable + (shared_items[key] - n_shared) * ln_diff
        if ceiling < theta_ind:
            continue
        shared_positions = _shared_positions(state, key[0], key[1])
        record = _PairRecord(
            key[0],
            key[1],
            PairBookkeeping(
                copying=False,
                early=False,
                c_base_fwd=0.0,
                c_base_bwd=0.0,
                decision_pos=n_entries,
                n_before=len(shared_positions),
                n_after=0,
                l=index.shared_items[key],
            ),
        )
        state.pairs[key] = record
        for position in shared_positions:
            records = state.entry_pairs[position]
            if records is not None:
                records.append(record)
        opened.add(key)
    return opened


def _check_pass1(
    record: _PairRecord,
    n_dec: int,
    n_inc: int,
    delta_small_dec: float,
    delta_small_inc: float,
    m_credit: float,
    suffix_max_new: list[float],
    params: CopyParams,
) -> PairDecision | None:
    """Re-check a pair's verdict under pass-1 pessimistic estimates.

    Returns a decision when the old verdict is re-confirmed, else None.
    """
    if record.copying:
        # Pessimistic: small decreases at worst magnitude, increases and
        # after-decision entries ignored.
        work_fwd = record.c_base_fwd - delta_small_dec * n_dec
        work_bwd = record.c_base_bwd - delta_small_dec * n_dec
        decision = _early(work_fwd, work_bwd, True, params)
        if decision is None and record.n_after:
            # Step 2: minimum credit per after-decision shared entry.
            credit = m_credit * record.n_after
            decision = _early(work_fwd + credit, work_bwd + credit, True, params)
        return decision
    # No-copying pair: pessimistic means *over*-estimating the score.
    bound_pos = min(record.decision_pos + 1, len(suffix_max_new) - 1)
    ceiling = suffix_max_new[bound_pos] * record.n_after
    return _early(
        record.c_base_fwd + delta_small_inc * n_inc + ceiling,
        record.c_base_bwd + delta_small_inc * n_inc + ceiling,
        False, params,
    )


def _check_pass2(
    record: _PairRecord,
    after_fwd: float,
    after_bwd: float,
    n_dec: int,
    n_inc: int,
    delta_small_dec: float,
    delta_small_inc: float,
    params: CopyParams,
) -> PairDecision | None:
    """Re-check with exact after-decision contributions (pass 2)."""
    if record.copying:
        return _early(
            record.c_base_fwd - delta_small_dec * n_dec + after_fwd,
            record.c_base_bwd - delta_small_dec * n_dec + after_bwd,
            True, params,
        )
    return _early(
        record.c_base_fwd + delta_small_inc * n_inc + after_fwd,
        record.c_base_bwd + delta_small_inc * n_inc + after_bwd,
        False, params,
    )


def _early(
    work_fwd: float, work_bwd: float, copying: bool, params: CopyParams
) -> PairDecision | None:
    """The early decision at ``(work_fwd, work_bwd)`` when its posterior
    re-confirms the ``copying`` verdict, else None."""
    post = posterior(work_fwd, work_bwd, params)
    if post.copying != copying:
        return None
    return PairDecision(
        c_fwd=work_fwd, c_bwd=work_bwd, posterior=post, copying=copying, early=True
    )
