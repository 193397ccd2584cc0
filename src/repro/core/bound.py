"""BOUND, BOUND+ and HYBRID — early-terminating detection (Section IV).

As the index is scanned, each opened pair carries running lower and upper
bounds on its final scores:

* lower bound (Eq. 9): assume every not-yet-seen shared item disagrees —
  ``C^min = C0 + (l - n0) ln(1-s)``;
* upper bound (Eq. 10): estimate how many already-scanned items the pair
  disagrees on (``h``, from the per-source scan counts) and assume every
  unseen shared item contributes the best possible remaining score ``M`` —
  ``C^max = C0 + (h - n0) ln(1-s) + (l - h) M``.

A pair concludes *copying* as soon as either direction's ``C^min`` reaches
``theta_cp = ln(beta/alpha)`` and *no-copying* as soon as both directions'
``C^max`` drop below ``theta_ind = ln(beta/2 alpha)``.

BOUND evaluates both bounds at every shared entry; that overhead can
exceed the savings (Fig. 2 shows BOUND losing to INDEX on three of four
datasets).  BOUND+ (Section IV-B) schedules re-evaluations only when a
conclusion has become arithmetically possible (the ``T^min`` / ``T^max``
timers).  HYBRID applies plain INDEX accumulation to pairs sharing at most
``hybrid_threshold`` (paper: 16) items — for those, bound upkeep can never
pay for itself — and BOUND+ to the rest.

The scanner optionally records the per-pair bookkeeping INCREMENTAL needs
(decision point, shared-value counts before/after it, exact base scores);
see :class:`PairBookkeeping`.

Backends.  The loop in this module is the bit-exactness reference
(``CopyParams(backend="python")``); under the default
``backend="numpy"`` the scan is delegated to the epoch-batched
implementation in :mod:`repro.core.bound_kernel`.  That backend reads
the index's columnar entries and processes them in *epochs* of roughly
equal incidence mass (:data:`repro.core.kernel.EPOCH_INCIDENCE_BUDGET`):
per-epoch score contributions are computed columnarly (with the
reference's exact arithmetic — see
:func:`repro.core.kernel.score_incidence_args`), the per-pair
``(n0, C0_fwd, C0_bwd)`` state and BOUND+ timer milestones live in flat
arrays indexed by :class:`~repro.core.pairspace.PairSpace` slots and are
bulk-updated with order-preserving scatter-adds, and ``C^min`` /
``C^max`` are screened for all still-active pairs at epoch boundaries.
The few pairs whose timers fire or that approach a threshold inside an
epoch are *replayed* once per epoch on one flat, pair-sorted incidence
stream: every incidence's bounds are computed elementwise with this
loop's arithmetic, and the BOUND+ timer chains (BOUND's evaluate every
incidence) resolve in vector rounds, so a concluding pair's recorded
decision position is the first entry that crosses the threshold —
decisions, decision positions,
:class:`~repro.core.result.CostCounter` tallies and
:class:`PairBookkeeping` (stored scores included) are bit-identical to
this reference.  Every world size runs vectorized: past
:data:`repro.core.bound_kernel.DENSE_STATE_LIMIT` the state arrays hold
one slot per observed pair (``CopyParams.pair_layout``) instead of the
full ``n_sources ** 2`` pair grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log
from typing import Mapping, NamedTuple, Sequence

from ..data import Dataset
from .contribution import posterior
from .index import EntryOrdering, InvertedIndex
from .params import CopyParams
from .result import CostCounter, DetectionResult, PairDecision

_ACTIVE = 0
_DONE_COPY = 1
_DONE_NOCOPY = 2


class _PairState:
    """Mutable per-pair scan state."""

    __slots__ = (
        "n0",
        "c0_fwd",
        "c0_bwd",
        "status",
        "min_check_at",
        "max_check_n1",
        "max_check_n2",
        "decision_pos",
        "n_before",
        "n_after",
        "decision",
    )

    def __init__(self) -> None:
        self.n0 = 0
        self.c0_fwd = 0.0
        self.c0_bwd = 0.0
        self.status = _ACTIVE
        # BOUND+ timers: next n0 / n(S) milestones at which bounds are
        # re-evaluated.  0 means "evaluate immediately".
        self.min_check_at = 0
        self.max_check_n1 = 0
        self.max_check_n2 = 0
        # Bookkeeping for INCREMENTAL.
        self.decision_pos = -1
        self.n_before = 0
        self.n_after = 0
        self.decision: PairDecision | None = None


@dataclass(frozen=True)
class PairBookkeeping:
    """What INCREMENTAL remembers about a pair between rounds (Section V).

    Attributes:
        copying: the recorded decision.
        early: whether it was an early (bound-based) conclusion.
        c_base_fwd: exact part of the stored score ``C-hat`` —
            contributions of shared entries before the decision point plus
            the full different-value penalty ``(l - n_total) ln(1-s)``.
            For pairs resolved at scan end this is the exact final score.
        c_base_bwd: same, opposite direction.
        decision_pos: index position where the verdict was reached
            (``len(entries)`` when resolved at scan end).
        n_before: shared values seen before the decision point.
        n_after: shared values occurring after the decision point.
        l: total shared items.
    """

    copying: bool
    early: bool
    c_base_fwd: float
    c_base_bwd: float
    decision_pos: int
    n_before: int
    n_after: int
    l: int  # noqa: E741 — the paper's l(S1,S2); renaming would orphan the golden fixtures' key


@dataclass
class ScanOutcome:
    """A detection result, the index scanned, and optional bookkeeping.

    ``bookkeeping`` reads as ``pair -> PairBookkeeping`` either way: the
    reference scan's dict, or — from the numpy scan — a lazy
    :class:`~repro.core.result.PairRowView` over the kernel's columns
    that builds a :class:`PairBookkeeping` only when one is read.
    """

    result: DetectionResult
    index: InvertedIndex
    bookkeeping: Mapping[tuple[int, int], PairBookkeeping] | None = None


@dataclass
class PrefixScanState:
    """Raw accumulators after a *partial* (prefix-only) bound scan.

    The parallel engine's strong-evidence-prefix partitioning scans the
    first block of the processing order with bounds (where the early
    conclusions happen) and hands everything still undecided to the
    map/reduce INDEX kernel; this is the hand-off payload.

    Attributes:
        active: per bound-mode pair still active at the cut,
            ``(c0_fwd, c0_bwd, n0)`` — contributions of its shared
            entries seen so far, no penalty applied.
        exact: same accumulators for HYBRID's low-overlap (INDEX-mode)
            pairs.
        done: early verdicts reached inside the prefix.
        incidences: shared-value incidences examined so far.
        score_updates: directional score updates performed so far.
        bound_evals: bound evaluations performed so far.
    """

    active: dict[tuple[int, int], tuple[float, float, int]]
    exact: dict[tuple[int, int], tuple[float, float, int]]
    done: dict[tuple[int, int], PairDecision]
    incidences: int
    score_updates: int
    bound_evals: int


class BoundEval(NamedTuple):
    """One bound evaluation, as recorded by ``scan_with_bounds(eval_log=...)``.

    The log is a debugging/testing aid of the pure-Python reference scan
    (requesting it forces ``backend="python"``): BOUND must show an
    evaluation at every shared incidence, BOUND+ only at the ``T^min`` /
    ``T^max`` timer milestones.

    Attributes:
        kind: ``"min"`` or ``"max"``.
        pair: the source pair being evaluated.
        position: index position of the triggering entry.
        n0: the pair's shared-value count after this entry.
        n1: scan count ``n(S1)`` at this entry.
        n2: scan count ``n(S2)`` at this entry.
        scheduled_min: ``min_check_at`` in effect when evaluating.
        scheduled_max1: ``max_check_n1`` in effect when evaluating.
        scheduled_max2: ``max_check_n2`` in effect when evaluating.
    """

    kind: str
    pair: tuple[int, int]
    position: int
    n0: int
    n1: int
    n2: int
    scheduled_min: int
    scheduled_max1: int
    scheduled_max2: int


def scan_with_bounds(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    use_timers: bool = True,
    hybrid_threshold: int = 0,
    track_bookkeeping: bool = False,
    method_name: str = "bound+",
    band: tuple[float, float] | None = None,
    epoch_size: int | None = None,
    stop_at: int | None = None,
    collect_state: bool = False,
    eval_log: list[BoundEval] | None = None,
) -> ScanOutcome | PrefixScanState:
    """Core scan shared by BOUND (``use_timers=False``), BOUND+ and HYBRID.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.  ``params.backend == "numpy"`` routes
            the scan through the epoch-batched implementation in
            :mod:`repro.core.bound_kernel` (bit-identical outcome).
        index: prebuilt index to reuse; built here if omitted.
        ordering: entry ordering when the index is built here (Fig. 3).
        use_timers: enable the BOUND+ lazy re-evaluation timers.
        hybrid_threshold: pairs sharing at most this many items use plain
            INDEX accumulation (0 disables hybrid behaviour).
        track_bookkeeping: record :class:`PairBookkeeping` per pair (the
            preparation step of INCREMENTAL).
        method_name: label stored on the result.
        band: Section IV-A's confidence band ``(p_low, p_high)``: early
            *copying* conclusions then guarantee ``Pr(indep) <= p_low``
            and early *no-copy* conclusions ``Pr(indep) > p_high`` (up to
            the Eq. 10 estimate); pairs in between resolve exactly at
            scan end.  ``None`` keeps the binary 0.5/0.5 thresholds.
        epoch_size: entries per epoch for the numpy backend — the
            conformance grid's boundary-stress axis, offered here and on
            :class:`~repro.core.bound_kernel.EpochScan` only.  ``None``
            (what every detector passes) derives the boundaries from
            incidence mass (see
            :data:`repro.core.kernel.EPOCH_INCIDENCE_BUDGET`).
            Outcomes do not depend on it; both backends refuse values
            below 1 and the sequential reference ignores the rest.
        stop_at: scan only positions ``< stop_at`` (the parallel engine's
            strong-evidence prefix); ``None`` scans everything.
        collect_state: return the state at the cut instead of resolving
            remaining pairs (engine hand-off): a :class:`PrefixScanState`
            from this reference loop, the live
            :class:`~repro.core.bound_kernel.EpochScan` under numpy.
        eval_log: when a list is passed, every bound evaluation is
            appended as a :class:`BoundEval` (forces the Python
            reference path).

    Raises:
        ValueError: if the band is not ``0 < p_low <= p_high < 1``, or
            ``epoch_size < 1``.
    """
    if epoch_size is not None and epoch_size < 1:
        raise ValueError(f"epoch_size must be >= 1, got {epoch_size}")
    if index is None:
        index = InvertedIndex.build(
            dataset,
            probabilities,
            accuracies,
            params,
            ordering=ordering,
        )
    cost = CostCounter()
    ln_diff = params.ln_one_minus_s
    if band is None:
        theta_cp = params.theta_cp
        theta_ind = params.theta_ind
    else:
        p_low, p_high = band
        if not 0.0 < p_low <= p_high < 1.0:
            raise ValueError(f"band must satisfy 0 < p_low <= p_high < 1, got {band}")
        theta_cp = params.theta_cp_at(p_low)
        theta_ind = params.theta_ind_at(p_high)
    if params.backend == "numpy" and eval_log is None:
        # Every world size runs vectorized: the epoch scan picks its
        # pair-state layout from ``params.pair_layout``.
        from .bound_kernel import EpochScan

        scan = EpochScan(
            dataset,
            accuracies,
            params,
            index,
            theta_cp,
            theta_ind,
            use_timers,
            hybrid_threshold,
            track_bookkeeping,
            epoch_size=epoch_size,
        )
        scan.run(stop_at=stop_at)
        if collect_state:
            return scan
        result, bookkeeping = scan.finalize(method_name)
        return ScanOutcome(result=result, index=index, bookkeeping=bookkeeping)
    clamp = params.clamp_accuracy
    acc = [clamp(a) for a in accuracies]
    s = params.s
    one_minus_s = 1.0 - s
    inv_n = 1.0 / params.n
    shared_items = index.shared_items
    items_per_source = index.items_per_source
    suffix_max = index.suffix_max
    n_src = [0] * dataset.n_sources
    n_total_sources = dataset.n_sources
    states: dict[tuple[int, int], _PairState] = {}
    # Exact-mode (HYBRID low-overlap) pairs: [c_fwd, c_bwd, n_shared]
    # keyed by s1 * n_sources + s2, exactly like detect_index.
    exact_state: dict[int, list[float]] = {}
    tail_start = index.tail_start
    ceil = math.ceil
    incidences = 0
    score_updates = 0
    bound_evals = 0
    scan_end = len(index.entries) if stop_at is None else stop_at

    for position, entry in enumerate(index.entries[:scan_end]):
        in_tail = position >= tail_start
        p = entry.probability
        q = 1.0 - p
        q_over_n = q * inv_n
        providers = entry.providers
        for source in providers:
            n_src[source] += 1
        next_max = suffix_max[position + 1]
        k = len(providers)
        # Hoist per-provider terms of Eqs. (3)-(4) out of the pair loop.
        accs = [acc[src] for src in providers]
        nots = [1.0 - a for a in accs]
        singles = [p * a + q * (1.0 - a) for a in accs]
        for i in range(k):
            s1 = providers[i]
            a1 = accs[i]
            na1 = nots[i]
            ps1 = singles[i]
            exact_base = s1 * n_total_sources
            for j in range(i + 1, k):
                s2 = providers[j]
                # Fast path: pairs in exact (INDEX) mode live in flat list
                # cells — no bound upkeep, no per-pair objects.
                cell = exact_state.get(exact_base + s2)
                if cell is not None:
                    incidences += 1
                    score_updates += 2
                    denom = p * a1 * accs[j] + q_over_n * na1 * nots[j]
                    cell[0] += log(one_minus_s + s * singles[j] / denom)
                    cell[1] += log(one_minus_s + s * ps1 / denom)
                    cell[2] += 1.0
                    continue
                pair = (s1, s2)
                state = states.get(pair)
                if state is None:
                    if in_tail:
                        continue  # Step III opens no new pairs
                    l_shared = shared_items[pair]
                    if l_shared <= hybrid_threshold:
                        incidences += 1
                        score_updates += 2
                        denom = p * a1 * accs[j] + q_over_n * na1 * nots[j]
                        exact_state[exact_base + s2] = [
                            log(one_minus_s + s * singles[j] / denom),
                            log(one_minus_s + s * ps1 / denom),
                            1.0,
                        ]
                        continue
                    state = _PairState()
                    states[pair] = state
                if state.status != _ACTIVE:
                    if track_bookkeeping:
                        state.n_after += 1
                    continue

                incidences += 1
                score_updates += 2
                denom = p * a1 * accs[j] + q_over_n * na1 * nots[j]
                state.n0 += 1
                state.c0_fwd += log(one_minus_s + s * singles[j] / denom)
                state.c0_bwd += log(one_minus_s + s * ps1 / denom)

                l_shared = shared_items[pair]
                # --- C^min check (Eq. 9) --------------------------------
                if not use_timers or state.n0 >= state.min_check_at:
                    bound_evals += 1
                    if eval_log is not None:
                        eval_log.append(
                            BoundEval(
                                "min", pair, position, state.n0,
                                n_src[s1], n_src[s2], state.min_check_at,
                                state.max_check_n1, state.max_check_n2,
                            )
                        )
                    penalty = (l_shared - state.n0) * ln_diff
                    cmin_fwd = state.c0_fwd + penalty
                    cmin_bwd = state.c0_bwd + penalty
                    best_min = max(cmin_fwd, cmin_bwd)
                    if best_min >= theta_cp:
                        _conclude(
                            state, position, cmin_fwd, cmin_bwd, True, params
                        )
                        continue
                    if use_timers:
                        step = next_max - ln_diff
                        t_min = ceil((theta_cp - best_min) / step)
                        state.min_check_at = state.n0 + max(t_min, 1)

                # --- C^max check (Eq. 10) -------------------------------
                if not use_timers or (
                    n_src[s1] >= state.max_check_n1
                    or n_src[s2] >= state.max_check_n2
                ):
                    bound_evals += 1
                    if eval_log is not None:
                        eval_log.append(
                            BoundEval(
                                "max", pair, position, state.n0,
                                n_src[s1], n_src[s2], state.min_check_at,
                                state.max_check_n1, state.max_check_n2,
                            )
                        )
                    h = max(
                        n_src[s1] * l_shared / items_per_source[s1],
                        n_src[s2] * l_shared / items_per_source[s2],
                    )
                    h = min(max(h, float(state.n0)), float(l_shared))
                    spread = (h - state.n0) * ln_diff + (l_shared - h) * next_max
                    cmax_fwd = state.c0_fwd + spread
                    cmax_bwd = state.c0_bwd + spread
                    worst_max = max(cmax_fwd, cmax_bwd)
                    if worst_max < theta_ind:
                        _conclude(
                            state, position, cmax_fwd, cmax_bwd, False, params
                        )
                        continue
                    if use_timers:
                        step = next_max - ln_diff
                        t_max0 = ceil((worst_max - theta_ind) / step)
                        needed_diff = t_max0 + (h - state.n0)
                        state.max_check_n1 = ceil(
                            needed_diff * items_per_source[s1] / l_shared
                        )
                        state.max_check_n2 = ceil(
                            needed_diff * items_per_source[s2] / l_shared
                        )

    cost.values_examined = incidences
    cost.computations = score_updates + bound_evals

    if collect_state:
        return PrefixScanState(
            active={
                pair: (state.c0_fwd, state.c0_bwd, state.n0)
                for pair, state in states.items()
                if state.status == _ACTIVE
            },
            exact={
                (key // n_total_sources, key % n_total_sources): (
                    cell[0],
                    cell[1],
                    int(cell[2]),
                )
                for key, cell in exact_state.items()
            },
            done={
                pair: state.decision
                for pair, state in states.items()
                if state.status != _ACTIVE
            },
            incidences=incidences,
            score_updates=score_updates,
            bound_evals=bound_evals,
        )

    # --- Step IV: resolve remaining pairs exactly -----------------------
    end_position = len(index.entries)
    decisions: dict[tuple[int, int], PairDecision] = {}
    bookkeeping: dict[tuple[int, int], PairBookkeeping] | None = (
        {} if track_bookkeeping else None
    )
    for pair, state in states.items():
        cost.pairs_considered += 1
        if state.status == _ACTIVE:
            cost.score_update(2)
            l_shared = shared_items[pair]
            penalty = (l_shared - state.n0) * ln_diff
            c_fwd = state.c0_fwd + penalty
            c_bwd = state.c0_bwd + penalty
            post = posterior(c_fwd, c_bwd, params)
            state.decision = PairDecision(
                c_fwd=c_fwd,
                c_bwd=c_bwd,
                posterior=post,
                copying=post.copying,
                early=False,
            )
            state.decision_pos = end_position
            state.n_before = state.n0
            state.n_after = 0
        decision = state.decision
        assert decision is not None
        decisions[pair] = decision
        if bookkeeping is not None:
            l_shared = shared_items[pair]
            n_total = state.n_before + state.n_after
            base_penalty = (l_shared - n_total) * ln_diff
            # c0 at the decision point, reconstructed: for early pairs the
            # stored c0 already stopped growing at the decision entry.
            bookkeeping[pair] = PairBookkeeping(
                copying=decision.copying,
                early=decision.early,
                c_base_fwd=state.c0_fwd + base_penalty,
                c_base_bwd=state.c0_bwd + base_penalty,
                decision_pos=state.decision_pos,
                n_before=state.n_before,
                n_after=state.n_after,
                l=l_shared,
            )

    # Exact-mode (INDEX-style) pairs resolve at scan end too.
    for key, (c_fwd, c_bwd, n_shared) in exact_state.items():
        pair = (key // n_total_sources, key % n_total_sources)
        cost.pairs_considered += 1
        cost.score_update(2)
        l_shared = shared_items[pair]
        penalty = (l_shared - int(n_shared)) * ln_diff
        c_fwd += penalty
        c_bwd += penalty
        post = posterior(c_fwd, c_bwd, params)
        decisions[pair] = PairDecision(
            c_fwd=c_fwd,
            c_bwd=c_bwd,
            posterior=post,
            copying=post.copying,
            early=False,
        )
        if bookkeeping is not None:
            bookkeeping[pair] = PairBookkeeping(
                copying=post.copying,
                early=False,
                c_base_fwd=c_fwd,
                c_base_bwd=c_bwd,
                decision_pos=end_position,
                n_before=int(n_shared),
                n_after=0,
                l=l_shared,
            )

    result = DetectionResult(
        method=method_name,
        n_sources=dataset.n_sources,
        decisions=decisions,
        cost=cost,
        decision_pos=None
        if bookkeeping is None
        else {pair: book.decision_pos for pair, book in bookkeeping.items()},
    )
    return ScanOutcome(result=result, index=index, bookkeeping=bookkeeping)


def _conclude(
    state: _PairState,
    position: int,
    c_fwd: float,
    c_bwd: float,
    copying: bool,
    params: CopyParams,
) -> None:
    """Record an early verdict for a pair."""
    post = posterior(c_fwd, c_bwd, params)
    state.status = _DONE_COPY if copying else _DONE_NOCOPY
    state.decision = PairDecision(
        c_fwd=c_fwd,
        c_bwd=c_bwd,
        posterior=post,
        copying=copying,
        early=True,
    )
    state.decision_pos = position
    state.n_before = state.n0
    state.n_after = 0


def detect_bound(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    band: tuple[float, float] | None = None,
) -> DetectionResult:
    """BOUND: bounds evaluated at every shared entry (Section IV-A)."""
    return scan_with_bounds(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        ordering=ordering,
        use_timers=False,
        hybrid_threshold=0,
        method_name="bound",
        band=band,
    ).result


def detect_bound_plus(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    band: tuple[float, float] | None = None,
) -> DetectionResult:
    """BOUND+: BOUND with lazy bound re-evaluation timers (Section IV-B)."""
    return scan_with_bounds(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        ordering=ordering,
        use_timers=True,
        hybrid_threshold=0,
        method_name="bound+",
        band=band,
    ).result


#: Pairs sharing at most this many items are handled INDEX-style inside
#: HYBRID.  The paper picked 16 empirically (footnote 6).
DEFAULT_HYBRID_THRESHOLD = 16


def detect_hybrid(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex | None = None,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
    track_bookkeeping: bool = False,
) -> ScanOutcome:
    """HYBRID: INDEX for low-overlap pairs, BOUND+ for the rest.

    Returns the full :class:`ScanOutcome` because HYBRID doubles as the
    preparation round of INCREMENTAL (``track_bookkeeping=True``).
    """
    return scan_with_bounds(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        ordering=ordering,
        use_timers=True,
        hybrid_threshold=hybrid_threshold,
        track_bookkeeping=track_bookkeeping,
        method_name="hybrid",
    )
