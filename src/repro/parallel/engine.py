"""Partitioned (map/reduce-style) copy detection — Section VIII realised.

Each worker scans its share of index entries with INDEX's own map step
(:func:`repro.core.index_algo.scan_share`) and emits, for every source
pair co-occurring there, a *partial accumulator*:

    (c_fwd, c_bwd, n_shared, saw_main_entry)

The reducer sums partials per pair and hands them to INDEX's finisher
(:func:`repro.core.index_algo.finish_index`): it drops pairs that never
appeared in a non-tail entry (INDEX's skip rule), applies the
different-value penalty ``ln(1-s) * (l - n)``, evaluates Eq. (2) and
counts the paper's cost.  Sequential INDEX is the same scan over one
share, so at ``n_partitions=1`` the two are bit-identical; with more
shares the merge re-associates the float sums, so scores agree to
rounding error while the opened pairs and the cost counters are the
sequential ones exactly.

Executors: *where* a partition is scanned can never change a verdict,
so this module knows nothing about pools, processes or sockets.
Both detectors describe a round as a :class:`ScanWorld` plus position
partitions and hand it to one executor through one call
(:func:`_map_reduce`); ``"serial"``, ``"threads"``, ``"processes"``
(:mod:`repro.parallel.executors`) and ``"remote"``
(:class:`repro.cluster.ClusterExecutor`) are four implementations of the
same ``map_reduce`` protocol, each owning its own pool, forked workers
or session, and all built by
:func:`repro.parallel.executors.open_executor`.

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
like INDEX (cluster broadcast and tree reduce included).  The bound scan
folds the merged suffix into its own state before its Step IV
(``scan_with_bounds(stop_at=..., suffix=...)``), so both backends join
the halves by one rule: pairs concluded inside the prefix keep their
early verdicts; everything else resolves exactly.

Backends differ only in their ``(scan, merge)`` pair: with
``params.backend == "numpy"`` each partition is
scanned with the vectorized kernel over columnar payloads
(:class:`repro.core.kernel.ColumnarEntries`) and the reduce step merges
flat :class:`~repro.core.kernel.PairTable` partials with
``np.add.at``/``np.bincount``; ``"python"`` scans the index's entries
into dict partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from ..core.bound import DEFAULT_HYBRID_THRESHOLD, scan_with_bounds
from ..core.index import InvertedIndex
from ..core.index_algo import Partial, finish_index, scan_share
from ..core.kernel import PairTable
from ..core.params import CopyParams, validate_execution
from ..core.result import DetectionResult
from ..data import Dataset

Executor = Literal["serial", "threads", "processes", "remote"]
ReduceMode = Literal["flat", "tree"]

def _merge_partial_into(target: Partial, partial: Partial) -> Partial:
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
    and never branches on the backend: the python backend scans the
    index's entries into dict partials, the numpy backend scans
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

    def scan(self, positions: Sequence[int], params: CopyParams):
        """Scan one partition into its partial (the in-process map step,
        :func:`repro.core.index_algo.scan_share`)."""
        return scan_share(
            self.index, positions, self.accuracies, params, self.n_sources
        )

    def _merge(self, partials: list, params: CopyParams):
        if self.columnar:
            return PairTable.merge(partials)
        merged: Partial = {}
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
    nothing was scanned.  Without a ``workspace`` to keep it, the
    executor opened for the call — pool, forked workers or dialed
    session, never a caller's live ``cluster`` — is closed on the way out.
    """
    parts = [part for part in partitions if part]
    if not parts:
        # Every partition was empty (a world with no shared values).
        return None
    world = ScanWorld(
        index, list(accuracies), dataset.n_sources, params.backend == "numpy"
    )
    if workspace is not None:
        return workspace.executor(executor, cluster).map_reduce(
            world, parts, params, reduce_mode
        )
    from .executors import open_executor  # imports repro.cluster

    opened: dict = {}
    try:
        return open_executor(executor, cluster, opened).map_reduce(
            world, parts, params, reduce_mode
        )
    finally:
        for each in opened.values():
            each.close()


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
    """INDEX over a partitioned scan, finished and costed like sequential INDEX.

    Bit-identical to :func:`repro.core.detect_index` at
    ``n_partitions=1``; beyond it scores agree to re-association error
    (see the module docstring).

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
            persistent executor (pool, forked workers, cluster
            session) is reused when the engine runs once per fusion
            round; when omitted, the call opens its own executor and
            closes it on the way out.
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
    return finish_index(merged, index, params, dataset.n_sources, "index-parallel")


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
       per cluster session under ``"processes"`` and ``"remote"`` — with
       flat-table merge under numpy, dict partials under python).
       Workers are oblivious to the prefix verdicts, so a concluded
       pair's suffix contributions are computed and discarded — the
       usual price of coordination-free map work.  Neither half reads
       the other, so the suffix is map/reduced first.
    3. The prefix scan takes the merged suffix (``suffix=``) and folds it
       into its state just before Step IV, on both backends by one rule:
       survivors add the suffix sums to their prefix accumulators, and
       pairs first seen in the suffix follow INDEX's skip rule (opened,
       in exact mode, only with a non-tail incidence).  Step IV then
       applies the different-value penalty and Eq. (2) and counts the
       cost as a sequential scan would.

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
    # Map/reduce the suffix into per-pair [c_fwd, c_bwd, n, saw_main].
    suffix = _map_reduce(
        dataset, index, suffix_blocks, accuracies, params, executor, reduce,
        workspace, cluster,
    )
    return scan_with_bounds(
        dataset,
        probabilities,
        accuracies,
        params,
        index=index,
        hybrid_threshold=hybrid_threshold,
        method_name="hybrid-parallel",
        stop_at=len(prefix_block),
        suffix=suffix,
    ).result
