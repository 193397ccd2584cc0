"""Partitioned (map/reduce-style) copy detection — Section VIII realised.

Each worker scans its share of index entries and emits, for every source
pair co-occurring there, a *partial accumulator*:

    (c_fwd, c_bwd, n_shared, saw_main_entry)

The reducer sums partials per pair, drops pairs that never appeared in a
non-tail entry (INDEX's skip rule), applies the different-value penalty
``ln(1-s) * (l - n)``, and evaluates Eq. (2).  Because INDEX's score
accumulation is a plain sum, the merged result is *bit-identical* to the
sequential algorithm regardless of partitioning — verified by property
tests.

Executors: *where* a partition is scanned can never change a verdict,
so this module knows nothing about pools, shared memory or sockets.
Both detectors describe a round as a :class:`ScanWorld` plus position
partitions and hand it to one executor through one call
(:func:`_map_reduce`); ``"serial"``, ``"threads"``, ``"processes"``
(:mod:`repro.parallel.executors`) and ``"remote"``
(:class:`repro.cluster.ClusterExecutor`) are four implementations of the
same ``map_reduce`` protocol, each owning its own pool, shared block or
session.

Reduction topologies (``reduce=``):

* ``"flat"`` — merge all P partial results in one pass (cost O(P) deep).
* ``"tree"`` — merge pairwise, halving the table count per level, so the
  reduce is O(log P) deep — the shape the ROADMAP calls for at large
  partition counts, and what a distributed combiner tree would run.
  Both topologies compute the same sums (floats re-associate, so flat
  and tree agree to re-association error; at ``n_partitions=1`` there is
  nothing to merge and both are bit-identical to the sequential scan).

Partitions are plain position ``range`` objects, one rule per method:
INDEX deals the positions round-robin (:func:`_stride_shares`), which
spreads the popular values — their entries carry quadratically more
pairs — across all shares; HYBRID cuts contiguous blocks
(:func:`_block_shares`).  Empty shares (more partitions than entries)
are never handed to an executor.

Early termination *is* parallelised, the way the paper suggests — by the
strong-evidence prefix (:func:`detect_hybrid_parallel`): the first
block of a BY_CONTRIBUTION ordering, where the early conclusions
happen, is scanned sequentially with the HYBRID bound machinery
(epoch-batched under ``backend="numpy"``), and the remaining blocks — by
then pure accumulation for the surviving pairs — are map/reduced exactly
like INDEX (shared-memory broadcast and tree reduce included).  Pairs
concluded inside the prefix keep their early verdicts; everything else
resolves exactly.

Backends differ only in their ``(scan, merge)`` pair: with
``params.backend == "numpy"`` each partition is
scanned with the vectorized kernel over columnar payloads
(:class:`repro.core.kernel.ColumnarEntries`) and the reduce step merges
flat :class:`~repro.core.kernel.PairTable` partials with
``np.add.at``/``np.bincount``; ``"python"`` scans per-entry tuples into
dict partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Literal, Mapping, Sequence

from ..core.bound import DEFAULT_HYBRID_THRESHOLD, PrefixScanState, scan_with_bounds
from ..core.contribution import posterior
from ..core.index import InvertedIndex
from ..core.params import CopyParams, validate_execution
from ..core.result import CostCounter, DecisionView, DetectionResult, PairDecision
from ..data import Dataset

Executor = Literal["serial", "threads", "processes", "remote"]
ReduceMode = Literal["flat", "tree"]

#: partial accumulator per pair: [c_fwd, c_bwd, n_shared, saw_main]
_Partial = dict[tuple[int, int], list[float]]


def _scan_partition(
    entries_payload: list[tuple[float, list[int], bool]],
    accuracies: Sequence[float],
    params: CopyParams,
) -> _Partial:
    """Map step: accumulate pair contributions over one entry share.

    ``entries_payload`` carries ``(probability, providers, in_tail)``
    triples so the function is picklable for process pools without
    shipping the whole index.
    """
    clamp = params.clamp_accuracy
    acc = [clamp(a) for a in accuracies]
    s = params.s
    one_minus_s = 1.0 - s
    inv_n = 1.0 / params.n
    partial: _Partial = {}
    for p, providers, in_tail in entries_payload:
        q = 1.0 - p
        q_over_n = q * inv_n
        k = len(providers)
        accs = [acc[src] for src in providers]
        nots = [1.0 - a for a in accs]
        singles = [p * a + q * (1.0 - a) for a in accs]
        main_flag = 0.0 if in_tail else 1.0
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


def _payload(index: InvertedIndex, positions: Sequence[int]):
    tail_start = index.tail_start
    return [
        (
            index.entries[pos].probability,
            index.entries[pos].providers,
            pos >= tail_start,
        )
        for pos in positions
    ]


def _merge_partial_into(target: _Partial, partial: _Partial) -> _Partial:
    """Accumulate one dict partial into another (the binary merge op)."""
    for pair, cell in partial.items():
        cur = target.get(pair)
        if cur is None:
            target[pair] = list(cell)
        else:
            cur[0] += cell[0]
            cur[1] += cell[1]
            cur[2] += cell[2]
            if cell[3]:
                cur[3] = 1.0
    return target


def _tree_reduce(items: list, merge_pair):
    """Pairwise (tree-wise) reduction: each level halves the item count.

    O(log P) merge depth — the topology a distributed combiner tree
    runs, shared by both partial representations and by every executor
    (the cluster driver reduces the partials its workers send back
    through :meth:`ScanWorld.reduce` too).
    """
    while len(items) > 1:
        items = [
            merge_pair(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


@dataclass
class ScanWorld:
    """One round's scan input, as every executor sees it.

    Bundles what a partition task reads with the backend's
    ``(scan, merge)`` pair, so an executor only decides *where* tasks run
    and never branches on the backend: the python backend scans per-entry
    tuples into dict partials, the numpy backend scans
    :class:`~repro.core.kernel.ColumnarEntries` into
    :class:`~repro.core.kernel.PairTable` partials (``columnar``).

    Attributes:
        index: the round's inverted index.
        accuracies: ``A(S)`` per source id.
        n_sources: source count (sizes the dense reduce grid).
        columnar: True under the numpy backend.
    """

    index: InvertedIndex
    accuracies: list[float]
    n_sources: int
    columnar: bool

    @property
    def cols(self):
        """The whole index as columnar entries (numpy backend only)."""
        return self.index.columnar_entries()

    def task(self, positions: Sequence[int], params: CopyParams):
        """``(fn, args)`` scanning one partition from a self-contained payload.

        ``fn`` is top-level and ``args`` picklable, so the same task runs
        inline, on a thread or in another process.
        """
        if self.columnar:
            from ..core.kernel import scan_columnar

            payload = self.cols.take(positions)
            return scan_columnar, (payload, self.accuracies, params, self.n_sources)
        payload = _payload(self.index, positions)
        return _scan_partition, (payload, self.accuracies, params)

    def _merge(self, partials: list, params: CopyParams):
        if self.columnar:
            from ..core.kernel import PairTable

            return PairTable.merge(partials)
        merged: _Partial = {}
        for partial in partials:
            _merge_partial_into(merged, partial)
        return merged

    def reduce(self, partials: Sequence, params: CopyParams, reduce_mode: ReduceMode):
        """Merge the non-empty partials; None when every one is empty.

        ``"flat"`` merges them all in one pass, in partition order;
        ``"tree"`` runs :func:`_tree_reduce` over them.
        """
        live = [partial for partial in partials if len(partial)]
        if not live:
            return None
        if reduce_mode == "tree":
            return _tree_reduce(live, lambda a, b: self._merge([a, b], params))
        return self._merge(live, params)


def _stride_shares(n_entries: int, n_partitions: int) -> list[range]:
    """INDEX's shares: position ``p`` goes to share ``p mod n_partitions``."""
    return [range(pid, n_entries, n_partitions) for pid in range(n_partitions)]


def _block_shares(n_entries: int, n_partitions: int) -> list[range]:
    """HYBRID's shares: ``n_partitions`` contiguous blocks in processing
    order, the first ``n_entries mod n_partitions`` one entry longer."""
    base, extra = divmod(n_entries, n_partitions)
    bounds = [pid * base + min(pid, extra) for pid in range(n_partitions + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _map_reduce(
    dataset: Dataset,
    index: InvertedIndex,
    partitions: Sequence[range],
    accuracies: Sequence[float],
    params: CopyParams,
    executor: Executor,
    reduce_mode: ReduceMode,
    workspace,
    cluster,
):
    """Scan the partitions on the named executor and reduce the partials.

    The single dispatch point INDEX and HYBRID share.  Returns the merged
    partial — a dict under the python backend, a
    :class:`~repro.core.kernel.PairTable` under numpy — or None when
    nothing was scanned.  Executors live in a
    :class:`~repro.fusion.FusionWorkspace`; a call without one opens a
    transient workspace, so pools, shared blocks and dialed cluster
    sessions are torn down on the way out exactly as a fusion run's are.
    """
    parts = [part for part in partitions if part]
    if not parts:
        # Every partition was empty (a world with no shared values).
        return None
    if workspace is None:
        from ..fusion.workspace import FusionWorkspace

        with FusionWorkspace(dataset, params) as transient:
            return _map_reduce(
                dataset, index, parts, accuracies, params, executor,
                reduce_mode, transient, cluster,
            )
    world = ScanWorld(
        index, list(accuracies), dataset.n_sources, params.backend == "numpy"
    )
    return workspace.executor(executor, cluster).map_reduce(
        world, parts, params, reduce_mode
    )


def _decide(
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


def detect_index_parallel(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex,
    n_partitions: int = 4,
    executor: Executor = "serial",
    reduce: ReduceMode = "flat",
    workspace=None,
    cluster=None,
) -> DetectionResult:
    """INDEX over a partitioned scan; verdicts identical to sequential.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        index: the round's index (:meth:`InvertedIndex.build`; under
            :func:`repro.core.detect` the one it builds).
        n_partitions: number of entry shares (>= 1), dealt round-robin.
        executor: ``"serial"``, ``"threads"``, ``"processes"`` or
            ``"remote"`` (cluster workers over TCP; numpy backend only).
        reduce: ``"flat"`` (single-pass merge) or ``"tree"`` (pairwise,
            O(log P) depth); the same merge on every executor.
        workspace: a :class:`~repro.fusion.FusionWorkspace` whose
            persistent executor (pool, shared-memory block, cluster
            session) is reused when the engine runs once per fusion
            round; a transient one is opened when omitted.
        cluster: for ``executor="remote"``: a live
            :class:`~repro.cluster.ClusterExecutor`, a worker list
            (``"host:port,host:port"`` or a sequence), or None to read
            ``REPRO_CLUSTER_WORKERS``.

    Raises:
        ValueError: for ``n_partitions < 1``, an unknown executor or
            reduce mode.
    """
    validate_execution(params, n_partitions, executor, reduce)
    merged = _map_reduce(
        dataset, index, _stride_shares(index.n_entries, n_partitions),
        accuracies, params, executor, reduce, workspace, cluster,
    )
    shared_items = index.shared_items
    cost = CostCounter()
    decisions: Mapping[tuple[int, int], PairDecision] = {}
    if isinstance(merged, dict):
        for pair, (c_fwd, c_bwd, n_shared, saw_main) in merged.items():
            cost.values_examined += int(n_shared)
            if saw_main:  # tail-only pairs: INDEX never opens them
                decisions[pair] = _decide(
                    c_fwd, c_bwd, int(n_shared), shared_items[pair], params
                )
    elif merged is not None:
        from ..core.kernel import decide_pairs

        # Same verdicts and accounting as the loop above, vectorized.
        decisions = DecisionView(
            decide_pairs(merged, shared_items, params, require_main=True)
        )
        cost.values_examined = int(merged.n_shared.sum())
    cost.pairs_considered = len(decisions)
    cost.computations = 2 * cost.values_examined + 2 * cost.pairs_considered
    return DetectionResult(
        method="index-parallel",
        n_sources=dataset.n_sources,
        decisions=decisions,
        cost=cost,
    )


def detect_hybrid_parallel(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    index: InvertedIndex,
    n_partitions: int = 4,
    executor: Executor = "serial",
    hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
    reduce: ReduceMode = "flat",
    workspace=None,
    cluster=None,
) -> DetectionResult:
    """HYBRID over the strong-evidence prefix, INDEX map/reduce after it.

    The paper observes that BOUND+'s timers "provide good insights on
    which entries can be processed in parallel": under BY_CONTRIBUTION
    ordering almost every early conclusion falls inside the first block
    of entries.  This detector exploits that:

    1. The first of ``n_partitions`` contiguous blocks — the
       strong-evidence prefix — is scanned *sequentially* with the full
       HYBRID machinery (``scan_with_bounds(stop_at=...)``; epoch-batched
       under ``backend="numpy"``).  Pairs that conclude there keep their
       early verdicts and are never touched again.
    2. The remaining blocks are scanned in parallel exactly like
       :func:`detect_index_parallel` (columnar payloads — broadcast once
       via shared memory under ``"processes"`` — with flat-table merge
       under numpy, dict partials under python).  Workers
       are oblivious to the prefix verdicts, so a concluded pair's
       suffix contributions are computed and discarded — the usual price
       of coordination-free map work.
    3. The reducer (flat or tree-wise, per ``reduce=``) adds suffix sums
       to the survivors' prefix accumulators, applies the
       different-value penalty and Eq. (2).  Pairs first seen in the
       suffix follow INDEX's skip rule (opened only with a non-tail
       incidence).

    Early *copying* conclusions are sound (``C^min`` bounds the exact
    score from below), so they agree with exact detection; early
    *no-copying* conclusions inherit Eq. (10)'s estimate, exactly as in
    the sequential HYBRID.  Survivor scores are exact.  With
    ``n_partitions=1`` the prefix is the whole index and the result
    equals :func:`repro.core.detect_hybrid`'s bit for bit.

    Raises:
        ValueError: for ``n_partitions < 1``, an unknown executor or
            reduce mode.
    """
    validate_execution(params, n_partitions, executor, reduce)
    prefix_block, *suffix_blocks = _block_shares(index.n_entries, n_partitions)
    prefix = scan_with_bounds(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        hybrid_threshold=hybrid_threshold,
        method_name="hybrid-parallel",
        stop_at=len(prefix_block),
        collect_state=True,
    )
    # Map/reduce the suffix into per-pair [c_fwd, c_bwd, n, saw_main].
    merged = _map_reduce(
        dataset, index, suffix_blocks, accuracies, params, executor, reduce,
        workspace, cluster,
    )
    if not isinstance(prefix, PrefixScanState):
        # numpy backend: the prefix is the live epoch scan, the suffix a
        # PairTable — the reduce below, on columns.
        if merged is not None:
            prefix.absorb(merged)
        return prefix.finalize("hybrid-parallel")[0]
    merged = merged or {}

    # Reduce: early verdicts stand; survivors absorb their suffix sums.
    shared_items = index.shared_items
    cost = CostCounter()
    decisions: dict[tuple[int, int], PairDecision] = dict(prefix.done)
    cost.values_examined = prefix.incidences
    cost.computations = prefix.score_updates + prefix.bound_evals
    suffix_incidences = 0
    exact_pairs = 0
    for survivors in (prefix.active, prefix.exact):
        for pair, (c_fwd, c_bwd, n_shared) in survivors.items():
            cell = merged.get(pair)
            if cell is not None:
                c_fwd += cell[0]
                c_bwd += cell[1]
                n_shared += int(cell[2])
            decisions[pair] = _decide(
                c_fwd, c_bwd, n_shared, shared_items[pair], params
            )
            exact_pairs += 1
    for pair, (c_fwd, c_bwd, n_shared, saw_main) in merged.items():
        suffix_incidences += int(n_shared)
        if pair in decisions:
            continue  # early verdicts stand; survivors already resolved
        if not saw_main:
            continue  # suffix-tail-only pair: INDEX never opens it
        decisions[pair] = _decide(
            c_fwd, c_bwd, int(n_shared), shared_items[pair], params
        )
        exact_pairs += 1
    cost.values_examined += suffix_incidences
    cost.computations += 2 * suffix_incidences + 2 * exact_pairs
    cost.pairs_considered = len(decisions)
    return DetectionResult(
        method="hybrid-parallel",
        n_sources=dataset.n_sources,
        decisions=decisions,
        cost=cost,
    )
