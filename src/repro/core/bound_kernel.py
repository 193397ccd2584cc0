"""Epoch-batched NumPy backend for the BOUND/BOUND+/HYBRID scans.

The early-terminating scans of Section IV are sequential *per pair*: each
shared-value incidence may update a pair's running scores, fire a BOUND+
timer, and conclude the pair on the spot.  They are, however, only weakly
sequential *across* pairs — and between two consecutive bound evaluations
of one pair, its state evolves by plain summation.  This module exploits
that structure to batch the scan without changing a single observable bit:

1. **Epochs.**  The ordered entry stream is processed in blocks of
   roughly equal *incidence mass*: an entry with ``k`` providers weighs
   ``C(k, 2)`` and a block closes once
   :data:`repro.core.kernel.EPOCH_INCIDENCE_BUDGET` incidences have
   accumulated, so a few 40-provider entries and a few
   thousand 2-provider ones cost one epoch's vector overhead each.
   (An explicit ``epoch_size=`` means entries per epoch instead — the
   conformance grid's boundary-stress axis.)  An epoch is a slice of
   the index's one columnar view (``index.columnar_entries()``, which
   the index build sets); its incidences are expanded columnarly
   (:func:`repro.core.kernel.expand_incidences_ordered` — entry order is
   preserved so per-pair addition order matches the reference).
2. **Exact contributions.**  The Eq. (6) log *arguments* are computed
   with :func:`repro.core.kernel.score_incidence_args`, which mirrors the
   reference's scalar arithmetic expression by expression; the log itself
   is taken with ``math.log`` per element because ``np.log``'s SIMD path
   can differ from ``math.log`` by an ulp.  Contributions are therefore
   bit-equal to the pure-Python scan's.  An argument depends only on the
   entry's probability and the two accuracies, so when the epoch's
   ``distinct probabilities x distinct accuracies**2`` grid is smaller
   than its live incidence stream the logs are taken once per grid cell
   and gathered — saturated truth probabilities (every agreed-on value
   at exactly 1.0) make that the common case on dense worlds.
3. **Compact per-pair state.**  ``(n0, C0_fwd, C0_bwd)``, the BOUND+
   timer milestones and the pair lifecycle live in flat arrays indexed
   by :class:`repro.core.pairspace.PairSpace` slots — the full
   ``n_sources ** 2`` grid in the dense layout, one slot per
   *observed* pair (every key in ``index.shared_items``) in the sparse
   one.  Bulk accumulation uses ``np.add.at`` / ``np.bincount``, whose
   scatter-adds apply in stream order — an exact left fold, identical
   to the reference's ``+=`` sequence.  Slot order is key order in both
   layouts (grid cells and ranks of the sorted observed keys), so every
   ordering-sensitive step (stable sorts, ``np.unique`` grouping,
   ascending-slot finalization) is identical between the layouts: the
   bit-exactness contract below holds for both.
4. **Epoch-boundary screening.**  At each epoch boundary the pairs that
   could possibly have evaluated a bound inside the epoch are identified
   vectorially:

   * with timers (BOUND+/HYBRID) the triggers are integer comparisons on
     ``n0`` and the per-source scan counts, evaluated conservatively at
     their epoch-end values — exact, no tolerance needed;
   * without timers (BOUND) a pair may conclude *copying* iff its
     epoch-end ``C^min`` reaches ``theta_cp`` (``C^min`` is monotone
     nondecreasing along the scan, so the epoch-end value is the epoch
     maximum), and may conclude *no-copying* only if a conservative lower
     bound on its in-epoch ``C^max`` drops below ``theta_ind``; both
     screens carry a small absolute slack so float re-association in the
     screen itself can never hide a conclusion.

   Screened-out pairs take the bulk path: their state after the epoch is
   the same left-fold sum the reference would have produced, and (for
   BOUND) their evaluation count is added in closed form.
5. **One flat replay per epoch.**  The screened-in incidences, sorted by
   pair, are replayed once per epoch for BOUND, BOUND+ and HYBRID alike:
   each cell's ``n0``, bounds, conclusion flags and would-be timer
   milestones are elementwise, with the reference's expressions, over
   ``C0`` sums folded exactly by ``np.cumsum``.  Which cells evaluate is
   two timer chains per pair, resolved in vector rounds (no Python loop
   per pair or cell), so decision positions, bound values, cost counters
   and INCREMENTAL bookkeeping are bit-identical to the pure-Python scan.

HYBRID's low-overlap pairs (``l <= hybrid_threshold``) skip bound upkeep
entirely: they are accumulated with the same exact contributions in
*exact mode*, mirroring the reference's int-keyed exact cells, and
resolve at scan end.

The net effect: decisions, decision positions, ``CostCounter`` fields and
:class:`~repro.core.bound.PairBookkeeping` — including the stored float
scores — are bit-identical to ``backend="python"``, while the per-entry
Python interpreter work collapses to two ``math.log`` calls per *live*
incidence — or per distinct ``(probability, accuracy, accuracy)`` cell,
whichever is fewer — plus a handful of vector operations per epoch.

State sizing: ``CopyParams.pair_layout`` picks the layout — ``"auto"``
keeps the dense pair grid while ``n_sources ** 2`` fits under
:data:`DENSE_STATE_LIMIT` and switches (with a logged warning) to the
sparse observed-pair layout beyond it.  The former behaviour — silently
falling back to the pure-Python reference scan above the limit — is
retired: big worlds now run vectorized.
"""

from __future__ import annotations

from math import log
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .contribution import exact_posteriors
from .kernel import (
    PairTable,
    clamp_accuracies,
    expand_incidences_ordered,
    incidence_mass_bounds,
    score_incidence_args,
    shared_item_counts,
)
from .pairspace import PairMap, PairSpace, resolve_pair_layout
from .params import CopyParams
from .result import CostCounter, DetectionResult, PairColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data import Dataset
    from .index import InvertedIndex

# Pair lifecycle in the dense status array.
_UNSEEN = 0
_ACTIVE = 1
_EXACT = 2
_DONE_COPY = 3
_DONE_NOCOPY = 4

#: Largest pair grid (``n_sources ** 2`` cells) the ``"auto"`` layout
#: allocates dense per-pair state arrays for (eight dense arrays at this
#: limit cost ~64 MB); larger worlds switch — with a logged warning —
#: to the sparse observed-pair layout, whose state is bounded by
#: ``len(index.shared_items)`` instead.  (Before the sparse layer this
#: limit triggered a silent fallback to the pure-Python scan.)
DENSE_STATE_LIMIT = 1 << 20

#: Under ``"auto"`` a grid that fits the limit still goes sparse when the
#: observed pairs (``len(index.shared_items)``) cover less than this
#: share of its ``n_sources ** 2`` cells — dead slots every epoch's masks
#: and ``finalize`` would walk.  Measured on the benchmark worlds: at 11%
#: occupancy (``batch_book_par``) sparse is faster and ~20 MB lighter, at
#: 49% (``batch_stock``) ~10% slower.  An occupancy choice crosses no
#: limit, so it logs no warning.
DENSE_MIN_OCCUPANCY = 0.25

#: Absolute slack on the BOUND conclusion screens.  The screens evaluate
#: mathematically-conservative bounds, but with float re-association; the
#: slack (orders of magnitude above the achievable rounding error, orders
#: of magnitude below any meaningful score gap) guarantees a pair within
#: reach of a threshold is always replayed — and replay decides exactly.
SCREEN_MARGIN = 1e-6


def _cumcount(values: np.ndarray) -> np.ndarray:
    """0-based rank of each element among its equals, in stream order."""
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_v = values[order]
    starts = np.r_[0, np.nonzero(np.diff(sorted_v))[0] + 1]
    sizes = np.diff(np.r_[starts, n])
    rank_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    out = np.empty(n, dtype=np.int64)
    out[order] = rank_sorted
    return out


def _seeded_cumsums(
    starts: np.ndarray,
    lengths: np.ndarray,
    streams: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[np.ndarray]:
    """Per-group running sums ``((seed + x_1) + x_2) + ...`` down flat,
    group-contiguous ``(values, seeds)`` streams, bit-equal to ``+=``.

    ``np.cumsum`` down a column is an exact left fold: the groups run as
    columns of padded power-of-two blocks, whose padding trails the real
    cells (it reads and writes one spare cell).
    """
    n = int(lengths.sum())
    outs = []
    for values, seeds in streams:
        out = np.zeros(n + 1)
        out[:n] = values
        out[starts] += seeds  # seed + x_1: the fold's own first step
        outs.append(out)
    longest = int(lengths.max())
    size = 2
    while size // 2 < longest:
        sel = np.nonzero((lengths > size // 2) & (lengths <= size))[0]
        if len(sel):
            col = np.arange(size)[:, None]
            idx = np.where(col < lengths[sel], starts[sel] + col, n)
            for out in outs:
                out[idx] = np.cumsum(out[idx], axis=0)
        size *= 2
    return [out[:n] for out in outs]


def _walk_chains(
    first: np.ndarray, jump: np.ndarray, flag: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk timer chains over a flat cell stream in vector rounds.

    Chain ``c`` starts at node ``first[c]`` and moves from a node ``i``
    that does not conclude (``flag[i]``) to ``jump[i]``; a target ``>=
    len(jump)`` ends it.  Chains are long runs of unit steps with rare
    jumps, so a round takes a whole run, up to the next cell that
    concludes or does not step to its neighbour, and then one jump.

    Returns:
        ``(nodes, stops, tails)``: 1 at every node, else 0; each chain's
        concluding node (``len(jump)`` if none); its last node (or -1).
    """
    n = len(jump)
    cell = np.arange(n)
    special = np.where(flag | (jump != cell + 1), cell, n)
    run_end = np.minimum.accumulate(special[::-1])[::-1]
    marks = np.zeros(n + 1, dtype=np.int64)
    stops = np.full(len(first), n)
    tails = np.full(len(first), -1)
    chain = np.nonzero(first < n)[0]
    at = first[chain]
    while len(chain):
        end = run_end[at]
        marks[at] += 1
        marks[end + 1] -= 1
        tails[chain] = end
        hit = flag[end]
        stops[chain[hit]] = end[hit]
        chain = chain[~hit]
        at = jump[end[~hit]]
        going = at < n
        chain, at = chain[going], at[going]
    return np.cumsum(marks[:-1]), stops, tails


class EpochScan:
    """Mutable scan state for one epoch-batched pass over an index.

    Drive it with :meth:`run`, then read the outcome with
    :meth:`finalize`.  ``scan_with_bounds(stop_at=..., suffix=...)``
    (the parallel engine's prefix hand-off) stops the run early and
    calls :meth:`absorb` with the map/reduced suffix sums before
    finalizing.
    """

    def __init__(
        self,
        dataset: "Dataset",
        accuracies: Sequence[float],
        params: CopyParams,
        index: "InvertedIndex",
        theta_cp: float,
        theta_ind: float,
        use_timers: bool,
        hybrid_threshold: int,
        track_bookkeeping: bool,
        epoch_size: int | None = None,
    ) -> None:
        if not isinstance(index.shared_items, PairMap):
            raise ValueError(
                "the index was built under backend='python' but the scan runs under"
                " backend='numpy': build the index under the scan's backend"
            )
        self.n_sources = dataset.n_sources
        layout = resolve_pair_layout(
            params.pair_layout,
            self.n_sources,
            DENSE_STATE_LIMIT,
            "bound_kernel.EpochScan",
        )
        #: the l(S1, S2) table (what a numpy-built index carries)
        self.shared_items = index.shared_items
        if (
            layout == "dense"
            and params.pair_layout == "auto"
            and len(self.shared_items) < DENSE_MIN_OCCUPANCY * self.n_sources**2
        ):
            layout = "sparse"
        # Every pair the entry stream can produce shares at least one
        # item, so the table covers every live slot: its sorted keys are
        # the sparse slot universe, as they are, and its counts are
        # slot-aligned with them.
        self.space = (
            PairSpace.dense(self.n_sources)
            if layout == "dense"
            else PairSpace.sparse(self.shared_items.columns.keys)
        )
        #: the round's one columnar index (a numpy build's own table)
        self.cols = index.columnar_entries()
        self.tail_start = index.tail_start
        self.suffix_list = index.suffix_max
        self.suffix_arr = np.asarray(index.suffix_max, dtype=np.float64)
        self.ips = np.asarray(index.items_per_source, dtype=np.int64)
        self.params = params
        self.theta_cp = theta_cp
        self.theta_ind = theta_ind
        self.use_timers = use_timers
        self.hybrid_threshold = hybrid_threshold
        self.track = track_bookkeeping
        self.ln_diff = params.ln_one_minus_s
        self.acc = clamp_accuracies(accuracies)
        # Factorized accuracies for the grid-deduplicated log path (see
        # _exact_contributions): every incidence's log argument is one of
        # (probability, acc, acc) grid cells.
        self.acc_unique, self.acc_ids = np.unique(self.acc, return_inverse=True)
        #: entries per epoch when the caller chose; None = by incidence mass
        self.epoch_size = epoch_size
        space = self.space
        self.status = space.zeros(dtype=np.int8)
        self.n0 = space.zeros(dtype=np.int64)
        self.c0_fwd = space.zeros()
        self.c0_bwd = space.zeros()
        # BOUND+ timer milestones; integer-valued but stored as float64
        # (math.ceil products stay well under 2**53, so comparisons
        # against integer counts are exact).
        self.min_check_at = space.zeros()
        self.max_check_n1 = space.zeros()
        self.max_check_n2 = space.zeros()
        self.l_arr = space.zeros(dtype=np.int64)
        self.n_after = space.zeros(dtype=np.int64)
        #: queued early conclusions, one compact array batch per replayed
        #: epoch: (slots, c_fwd, c_bwd, is_min, positions, n_before).
        self._done_batches: list[tuple[np.ndarray, ...]] = []
        self.n_src = np.zeros(self.n_sources, dtype=np.int64)
        self.incidences = 0
        self.score_updates = 0
        self.bound_evals = 0

    # ------------------------------------------------------------------
    # Scan driver
    # ------------------------------------------------------------------
    def run(self, stop_at: int | None = None) -> None:
        """Scan entries ``[0, stop_at)`` (the whole index by default)."""
        end = self.cols.n_entries if stop_at is None else stop_at
        bounds = self._epoch_bounds(np.diff(self.cols.offsets[: end + 1]))
        for e0, e1 in zip(bounds[:-1], bounds[1:]):
            self._run_epoch(e0, e1)

    def _epoch_bounds(self, counts: np.ndarray) -> list[int]:
        """Epoch boundaries ``[0, ..., end]`` over ``end = len(counts)``
        entries with the given provider counts.

        With an explicit ``epoch_size`` every epoch holds that many
        entries; otherwise see :func:`incidence_mass_bounds`.
        """
        if self.epoch_size is not None:
            end = len(counts)
            return [*range(0, end, self.epoch_size), end]
        return incidence_mass_bounds(counts)

    def _run_epoch(self, e0: int, e1: int) -> None:
        cols = self.cols
        lo, hi = cols.offsets[e0], cols.offsets[e1]
        offsets = cols.offsets[e0 : e1 + 1] - lo
        prov = cols.providers[lo:hi]
        probs_e = cols.probs[e0:e1]
        # Per-slot scan counts n(S) *after* the owning entry's bump —
        # the value the reference reads at that entry's pair loop.
        nsrc_slot = self.n_src[prov] + _cumcount(prov) + 1
        self.n_src += np.bincount(prov, minlength=self.n_sources)

        row, islot, jslot = expand_incidences_ordered(offsets, prov)
        if len(row) == 0:
            return
        src1 = prov[islot]
        src2 = prov[jslot]
        slots = self.space.slots(src1, src2)
        st = self.status[slots]

        # --- open pairs first seen in a non-tail entry ----------------
        unseen = st == _UNSEEN
        if unseen.any():
            new_slots, first_idx = np.unique(slots[unseen], return_index=True)
            opened = (row[unseen][first_idx] + e0) < self.tail_start
            open_slots = new_slots[opened]
            if len(open_slots):
                l_new = self._shared_counts(open_slots)
                self.l_arr[open_slots] = l_new
                self.status[open_slots] = np.where(
                    l_new <= self.hybrid_threshold, _EXACT, _ACTIVE
                ).astype(np.int8)
                st = self.status[slots]

        # --- count post-decision incidences (INCREMENTAL bookkeeping) -
        done_mask = st >= _DONE_COPY
        if done_mask.any():
            np.add.at(self.n_after, slots[done_mask], 1)

        # --- exact contributions for live incidences ------------------
        live = (st == _ACTIVE) | (st == _EXACT)
        if not live.any():
            return
        lrow = row[live]
        li = islot[live]
        lj = jslot[live]
        lk = slots[live]
        ls = st[live]
        fwd, bwd = self._exact_contributions(
            probs_e, lrow, src1[live], src2[live]
        )

        exact_mask = ls == _EXACT
        if exact_mask.any():
            ek = lk[exact_mask]
            np.add.at(self.c0_fwd, ek, fwd[exact_mask])
            np.add.at(self.c0_bwd, ek, bwd[exact_mask])
            np.add.at(self.n0, ek, 1)
            n_exact = int(exact_mask.sum())
            self.incidences += n_exact
            self.score_updates += 2 * n_exact

        act_mask = ls == _ACTIVE
        if not act_mask.any():
            return
        ak = lk[act_mask]
        act_fwd = fwd[act_mask]
        act_bwd = bwd[act_mask]
        # Per-slot aggregation: the slot space is capped (dense by
        # DENSE_STATE_LIMIT, sparse by the observed pair count), so
        # bincount scatter beats a sort-based np.unique.
        ns = self.space.n_slots
        cnt_dense = np.bincount(ak, minlength=ns)
        uk = np.nonzero(cnt_dense)[0]
        cnt = cnt_dense[uk]
        n0_u = self.n0[uk]
        n0_end = n0_u + cnt
        s1_u, s2_u = self.space.decode(uk)

        if self.use_timers:
            # Integer trigger screen at conservative (epoch-end) counts:
            # a timer can only have fired if it fires against the largest
            # counts the epoch reaches.  Replay re-checks each incidence
            # against the counts of *its* position, exactly.
            replay_u = (
                (n0_end >= self.min_check_at[uk])
                | (self.n_src[s1_u] >= self.max_check_n1[uk])
                | (self.n_src[s2_u] >= self.max_check_n2[uk])
            )
        else:
            l_u = self.l_arr[uk].astype(np.float64)
            c0f_u = self.c0_fwd[uk]
            c0b_u = self.c0_bwd[uk]
            sum_f = np.bincount(ak, weights=act_fwd, minlength=ns)[uk]
            sum_b = np.bincount(ak, weights=act_bwd, minlength=ns)[uk]
            # C^min is monotone nondecreasing, so the epoch-end value is
            # the epoch maximum: no copy conclusion below theta_cp.
            end_min = (
                np.maximum(c0f_u + sum_f, c0b_u + sum_b)
                + (l_u - n0_end) * self.ln_diff
            )
            min_cand = end_min >= self.theta_cp - SCREEN_MARGIN
            # Conservative lower bound on any in-epoch C^max: h at its
            # epoch ceiling, the unseen-entry bound M at its epoch
            # extremes (suffix_max is nonincreasing).
            h_raw = np.maximum(
                self.n_src[s1_u] * l_u / self.ips[s1_u],
                self.n_src[s2_u] * l_u / self.ips[s2_u],
            )
            h_ub = np.minimum(np.maximum(h_raw, n0_end), l_u)
            m_big = self.suffix_list[e0 + 1]
            m_small = self.suffix_list[e1]
            lower_max = (
                np.maximum(c0f_u, c0b_u)
                + (h_ub - n0_u) * self.ln_diff
                - h_ub * m_big
                + l_u * m_small
            )
            max_cand = lower_max < self.theta_ind + SCREEN_MARGIN
            replay_u = min_cand | max_cand

        replay_dense = np.zeros(ns, dtype=bool)
        replay_dense[uk[replay_u]] = True
        inc_replay = replay_dense[ak]
        bulk = ~inc_replay
        n_bulk = int(bulk.sum())
        if n_bulk:
            bk = ak[bulk]
            np.add.at(self.c0_fwd, bk, act_fwd[bulk])
            np.add.at(self.c0_bwd, bk, act_bwd[bulk])
            bulk_u = ~replay_u
            self.n0[uk[bulk_u]] += cnt[bulk_u]
            self.incidences += n_bulk
            self.score_updates += 2 * n_bulk
            if not self.use_timers:
                # BOUND evaluates both bounds at every incidence; a bulk
                # pair concludes at none of them, so the count is closed
                # form.
                self.bound_evals += 2 * n_bulk
        if n_bulk < len(ak):
            ridx = np.nonzero(inc_replay)[0]
            rk = ak[ridx]
            order = np.argsort(rk, kind="stable")
            ridx = ridx[order]
            rk = rk[order]
            live_idx = np.nonzero(act_mask)[0][ridx]
            # Group boundaries of the key-sorted replay stream.
            cuts = np.nonzero(np.diff(rk))[0] + 1
            starts = np.r_[0, cuts]
            ends = np.r_[cuts, np.int64(len(rk))]
            self._replay(
                rk[starts],
                starts,
                ends,
                lrow[live_idx] + e0,
                act_fwd[ridx],
                act_bwd[ridx],
                nsrc_slot[li[live_idx]],
                nsrc_slot[lj[live_idx]],
            )

    def _exact_contributions(
        self,
        probs_e: np.ndarray,
        lrow: np.ndarray,
        s1: np.ndarray,
        s2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (6) per live incidence, bit-equal to the scalar reference.

        The log arguments come out of
        :func:`~repro.core.kernel.score_incidence_args` (exact
        arithmetic); the logs themselves must be ``math.log`` (NumPy's
        SIMD log can stray by an ulp).  An argument is a function of
        ``(probability, accuracy, accuracy)`` alone, so when the epoch's
        distinct probabilities times the squared distinct accuracy count
        is below its live incidence count the arguments are computed
        once per grid cell and gathered per incidence — identical floats
        in, identical floats out, at a fraction of the per-incidence log
        cost.  Equal initial accuracies (round 1) and saturated truth
        probabilities (many agreeing sources) both land here.
        """
        n_acc = len(self.acc_unique)
        n_inc = len(lrow)
        p_unique, p_ids = np.unique(probs_e, return_inverse=True)
        if n_acc * n_acc * len(p_unique) < n_inc:
            grid_f, grid_b = score_incidence_args(
                p_unique[:, None, None],
                self.acc_unique[None, :, None],
                self.acc_unique[None, None, :],
                self.params,
            )
            flat_f = grid_f.ravel()
            flat_b = grid_b.ravel()
            logs_f = np.fromiter(
                map(log, flat_f.tolist()), np.float64, count=len(flat_f)
            )
            logs_b = np.fromiter(
                map(log, flat_b.tolist()), np.float64, count=len(flat_b)
            )
            cell = (
                p_ids[lrow] * (n_acc * n_acc)
                + self.acc_ids[s1] * n_acc
                + self.acc_ids[s2]
            )
            return logs_f[cell], logs_b[cell]
        arg_f, arg_b = score_incidence_args(
            probs_e[lrow], self.acc[s1], self.acc[s2], self.params
        )
        fwd = np.fromiter(map(log, arg_f.tolist()), np.float64, count=n_inc)
        bwd = np.fromiter(map(log, arg_b.tolist()), np.float64, count=n_inc)
        return fwd, bwd

    # ------------------------------------------------------------------
    # Exact replay (one flat pass per epoch)
    # ------------------------------------------------------------------
    def _replay(
        self,
        gkeys: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        pos: np.ndarray,
        fwd: np.ndarray,
        bwd: np.ndarray,
        n1: np.ndarray,
        n2: np.ndarray,
    ) -> None:
        """Exact replay of the screened-in pairs (module point 5).

        ``[starts, ends)`` slices the key-sorted incidence stream into one
        group of cells per pair.  A pair's ``(n0, C0)`` trajectory does
        not depend on which bounds evaluate along it, so every cell's
        bounds and would-be timer milestones come first; the timers'
        chains then pick the cells that evaluate (every cell for BOUND).
        """
        n_cells = len(pos)
        glen = ends - starts
        cell = np.arange(n_cells)
        gid = np.repeat(np.arange(len(gkeys)), glen)
        n00 = self.n0[gkeys]
        c0f, c0b = _seeded_cumsums(
            starts,
            glen,
            ((fwd, self.c0_fwd[gkeys]), (bwd, self.c0_bwd[gkeys])),
        )
        n0 = (n00 + 1 - starts)[gid] + cell
        l_c = self.l_arr[gkeys][gid]
        next_max = self.suffix_arr[pos + 1]
        ln_diff = self.ln_diff
        # --- C^min trajectory (Eq. 9) ---------------------------------
        penalty = (l_c - n0) * ln_diff
        # Rounding is monotone, so max(a + x, b + x) == max(a, b) + x: one
        # max serves both bounds, and per-direction values are formed only
        # where a pair concludes.
        c0_top = np.maximum(c0f, c0b)
        best_min = c0_top + penalty
        concl_min = best_min >= self.theta_cp
        # --- C^max trajectory (Eq. 10) --------------------------------
        s1_g, s2_g = self.space.decode(gkeys)
        ips1 = self.ips[s1_g][gid]
        ips2 = self.ips[s2_g][gid]
        h = np.maximum(n1 * l_c / ips1, n2 * l_c / ips2)
        h = np.minimum(np.maximum(h, n0), l_c)
        spread = (h - n0) * ln_diff + (l_c - h) * next_max
        worst_max = c0_top + spread
        concl_max = worst_max < self.theta_ind

        # --- which cells evaluate: each timer's next node per cell ----
        # (``none`` when the chain leaves the group; BOUND's timers
        # always name the next cell)
        none = 2 * n_cells
        group_end = ends[gid]
        next_cell = np.where(cell + 1 < group_end, cell + 1, none)
        jump_min = jump_max = next_cell
        first_min = first_max = starts
        if self.use_timers:
            step = next_max - ln_diff
            # T^min's next milestone is n0 + ahead: n0 grows by one per
            # cell, so that many cells on.
            ahead = np.maximum(np.ceil((self.theta_cp - best_min) / step), 1.0)
            needed = np.ceil((worst_max - self.theta_ind) / step) + (h - n0)
            mx1 = np.ceil(needed * ips1 / l_c)
            mx2 = np.ceil(needed * ips2 / l_c)
            hop = cell + np.minimum(ahead, n_cells).astype(np.int64)
            jump_min = np.where(hop < group_end, hop, none)
            wait = np.minimum(self.min_check_at[gkeys] - n00 - 1, glen)
            first_min = starts + np.maximum(wait, 0).astype(np.int64)
            first_min = np.where(first_min < ends, first_min, none)
            # T^max counts n(S1) / n(S2), nondecreasing along a group: a
            # cell steps to the next one if that reaches its milestones;
            # if not, no cell up to it does, and the next node is the
            # group's first cell that does, a search on group-major keys.
            big = int(max(n1.max(), n2.max())) + 2
            keys1 = gid * big + n1
            keys2 = gid * big + n2

            def reach(g, x1, x2):
                x1 = np.clip(x1, 0, big - 1).astype(np.int64)
                x2 = np.clip(x2, 0, big - 1).astype(np.int64)
                at = np.minimum(
                    np.searchsorted(keys1, g * big + x1),
                    np.searchsorted(keys2, g * big + x2),
                )
                return np.where(at < ends[g], at, none)

            hot = np.zeros(n_cells, dtype=bool)
            hot[:-1] = (n1[1:] >= mx1[:-1]) | (n2[1:] >= mx2[:-1])
            jump_max = np.where(hot, next_cell, none)
            far = np.nonzero(~hot & ~concl_max & (next_cell < none))[0]
            jump_max[far] = reach(gid[far], mx1[far], mx2[far])
            first_max = reach(
                np.arange(len(gkeys)),
                self.max_check_n1[gkeys],
                self.max_check_n2[gkeys],
            )
        # Both chains in one walk: min cells [0, R), max cells [R, 2R).
        n_groups = len(gkeys)
        nodes, stops, tails = _walk_chains(
            np.r_[first_min, first_max + n_cells],
            np.r_[jump_min, jump_max + n_cells],
            np.r_[concl_min, concl_max],
        )
        stop_min = stops[:n_groups]
        stop_max = stops[n_groups:] - n_cells
        # A min conclusion wins a tie: the reference checks C^min first.
        is_min = stop_min <= stop_max
        stop = np.minimum(stop_min, stop_max)
        concluded = stop < n_cells
        lim = np.where(concluded, stop, ends - 1)
        # A min stop skips its cell's max check.
        lim_max = np.where(concluded & is_min, stop - 1, lim)
        seen = np.r_[0, np.cumsum(nodes)]
        self.bound_evals += int(
            (seen[lim + 1] - seen[starts]).sum()
            + (seen[lim_max + 1 + n_cells] - seen[starts + n_cells]).sum()
        )
        n_active = int((lim - starts + 1).sum())
        self.incidences += n_active
        self.score_updates += 2 * n_active
        self.n0[gkeys] = n0[lim]
        self.c0_fwd[gkeys] = c0f[lim]
        self.c0_bwd[gkeys] = c0b[lim]
        if self.use_timers:
            # A walking pair's timers hold their chain's last node
            # (a concluded pair's are never read again).
            live = ~concluded
            tail_min = tails[:n_groups][live]
            tail_max = tails[n_groups:][live] - n_cells
            keys = gkeys[live]
            took = tail_min >= 0
            t = tail_min[took]
            self.min_check_at[keys[took]] = n0[t] + ahead[t]
            took = tail_max >= 0
            t = tail_max[took]
            self.max_check_n1[keys[took]] = mx1[t]
            self.max_check_n2[keys[took]] = mx2[t]
        if concluded.any():
            done = np.nonzero(concluded)[0]
            at = stop[done]
            done_min = is_min[done]
            hkeys = gkeys[done]
            self.status[hkeys] = np.where(
                done_min, _DONE_COPY, _DONE_NOCOPY
            ).astype(np.int8)
            self.n_after[hkeys] += ends[done] - at - 1
            # Early verdicts queue as compact arrays — the scan builds no
            # Python object per conclusion; finalize() makes the columns.
            bound = np.where(done_min, penalty[at], spread[at])
            self._done_batches.append((
                hkeys,
                c0f[at] + bound,
                c0b[at] + bound,
                done_min,
                pos[at],
                n0[at],
            ))

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _shared_counts(self, slots: np.ndarray) -> np.ndarray:
        """``l(S1, S2)`` of the pairs behind ``slots``."""
        if self.space.layout == "sparse":  # a slot is a row of the table
            return self.shared_items.columns.l[slots]
        return shared_item_counts(self.shared_items, self.space.slot_keys(slots))

    def absorb(self, suffix: PairTable) -> None:
        """Fold a map/reduced suffix scan into a prefix-only scan's state.

        The prefix hand-off's join, by the rule the reference scan also
        applies to a dict suffix: survivors add the suffix sums of their
        shared values to their prefix accumulators, pairs first seen in
        the suffix open INDEX-style (only with a non-tail incidence) in
        exact mode, and early verdicts stand — their suffix
        contributions are counted and discarded.
        """
        slots = self.space.key_slots(suffix.keys)
        status = self.status[slots]
        n_incidences = int(suffix.n_shared.sum())
        self.incidences += n_incidences
        self.score_updates += 2 * n_incidences
        live = (status == _ACTIVE) | (status == _EXACT)
        self.c0_fwd[slots[live]] += suffix.c_fwd[live]
        self.c0_bwd[slots[live]] += suffix.c_bwd[live]
        self.n0[slots[live]] += suffix.n_shared[live]
        new = (status == _UNSEEN) & suffix.saw_main
        opened = slots[new]
        self.c0_fwd[opened] = suffix.c_fwd[new]
        self.c0_bwd[opened] = suffix.c_bwd[new]
        self.n0[opened] = suffix.n_shared[new]
        self.l_arr[opened] = self._shared_counts(opened)
        self.status[opened] = _EXACT

    def finalize(self, method_name: str):
        """Step IV: resolve surviving pairs exactly; assemble the result.

        Every verdict — the queued early conclusions and the survivors
        resolved here — lands in one key-sorted
        :class:`~repro.core.result.PairColumns` table, and INCREMENTAL's
        bookkeeping, when tracked, in columns aligned with it; no
        per-pair object is built.  The posteriors come from
        :func:`~repro.core.contribution.exact_posteriors`.

        Returns:
            ``(result, bookkeeping)`` matching the reference scan's
            values bit for bit: ``bookkeeping`` is ``None`` unless
            tracked, else a :class:`~repro.core.pairspace.PairMap` that
            reads like the reference's ``pair -> PairBookkeeping`` dict
            and builds a :class:`~repro.core.bound.PairBookkeeping` only
            when one is read.
        """
        live_slots = np.nonzero(self.status)[0]
        survivors = live_slots[self.status[live_slots] <= _EXACT]
        cost = CostCounter(
            computations=self.score_updates + self.bound_evals + 2 * len(survivors),
            values_examined=self.incidences,
            pairs_considered=len(live_slots),
        )
        n0_s = self.n0[survivors]
        penalty = (self.l_arr[survivors] - n0_s) * self.ln_diff
        # (slots, c_fwd, c_bwd, verdict, decision_pos, n_before) per
        # batch; verdict 1 = early copy, 0 = early no-copy, -1 = resolved
        # here from the posterior.
        parts = [
            (b[0], b[1], b[2], b[3].astype(np.int8), b[4], b[5])
            for b in self._done_batches
        ]
        parts.append((
            survivors,
            self.c0_fwd[survivors] + penalty,
            self.c0_bwd[survivors] + penalty,
            np.full(len(survivors), -1, dtype=np.int8),
            np.full(len(survivors), self.cols.n_entries, dtype=np.int64),
            n0_s,
        ))
        slots, c_fwd, c_bwd, verdict, decision_pos, n_before = (
            np.concatenate(column) for column in zip(*parts)
        )
        # Ascending slots are ascending keys in both layouts.
        order = np.argsort(slots)
        slots, c_fwd, c_bwd, verdict = (
            slots[order], c_fwd[order], c_bwd[order], verdict[order]
        )
        independent, forward, backward = exact_posteriors(c_fwd, c_bwd, self.params)
        columns = PairColumns(
            self.space.slot_keys(slots),
            c_fwd,
            c_bwd,
            independent,
            forward,
            backward,
            copying=np.where(verdict < 0, independent <= 0.5, verdict == 1),
            early=verdict >= 0,
            decision_pos=decision_pos[order] if self.track else None,
        )
        result = DetectionResult(
            method=method_name,
            n_sources=self.n_sources,
            decisions=columns.decisions(),
            cost=cost,
        )
        if not self.track:
            return result, None
        from .bound import PairBookkeeping

        l_shared = self.l_arr[slots]
        n_before = n_before[order]
        n_after = self.n_after[slots]
        # C0 stopped growing at the decision entry, so for early pairs
        # this is the base score at the decision point; for survivors it
        # is the exact final score again.
        base_penalty = (l_shared - (n_before + n_after)) * self.ln_diff
        bookkeeping = PairMap.of(
            columns.keys,
            PairBookkeeping,
            copying=columns.copying,
            early=columns.early,
            c_base_fwd=self.c0_fwd[slots] + base_penalty,
            c_base_bwd=self.c0_bwd[slots] + base_penalty,
            # INCREMENTAL patches its positions in place: not the
            # result's column.
            decision_pos=columns.decision_pos.copy(),
            n_before=n_before,
            n_after=n_after,
            l=l_shared,
        )
        return result, bookkeeping
