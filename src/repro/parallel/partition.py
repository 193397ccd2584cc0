"""Partitioning the inverted index for parallel detection (Section VIII).

The paper's conclusion sketches two parallelisation opportunities: score
computation *within* an entry (across the pairs it contains) and
computation *across* entries.  This module implements the second — the
one that scales with data — by splitting the index's entries into
partitions that workers can scan independently.

Correctness hinges on one subtlety: INDEX opens a pair only when it
co-occurs in a *non-tail* entry, and a worker holding only tail entries
cannot know whether some other worker opened the pair.  Partial results
therefore record, per pair, whether any of its contributions came from a
main (non-tail) entry; the merge keeps exactly the pairs with main-entry
evidence, reproducing INDEX's skip rule (see
:mod:`repro.parallel.engine`).

Two strategies are provided:

* ``"blocks"`` — contiguous runs of the processing order.  Entries with
  similar scores land together; with BY_CONTRIBUTION ordering the first
  partition holds the strongest evidence (the paper notes BOUND+'s
  timers "provide good insights on which entries can be processed in
  parallel" — the strong prefix is where early decisions happen).
* ``"stride"`` — round-robin by position, which balances the skewed
  per-entry pair counts (popular values have quadratically more pairs).
* ``"work"`` — cost-balanced: partitions are filled greedily by each
  entry's *estimated incidence work* (``k*(k-1)/2`` pair contributions
  for a ``k``-provider entry), longest-processing-time first.  Stride
  balances entry *counts*; on skewed worlds a handful of popular values
  can still land together and turn one worker into the straggler that
  bounds wall-clock.  ``"work"`` bounds the spread by the largest single
  entry instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Literal

from ..core.index import InvertedIndex

PartitionStrategy = Literal["blocks", "stride", "work"]


@dataclass(frozen=True)
class EntryPartition:
    """One worker's share of the index.

    Attributes:
        partition_id: 0-based id.
        positions: entry positions (into ``index.entries``) this worker
            scans, in processing order.
    """

    partition_id: int
    positions: tuple[int, ...]


def partition_entries(
    index: InvertedIndex,
    n_partitions: int,
    strategy: PartitionStrategy = "stride",
) -> list[EntryPartition]:
    """Split the index's entry positions into ``n_partitions`` shares.

    Empty partitions are possible when there are fewer entries than
    partitions; they are returned anyway so worker ids stay stable.

    Raises:
        ValueError: for a non-positive partition count or unknown
            strategy.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    n_entries = index.n_entries
    if strategy == "blocks":
        base = n_entries // n_partitions
        remainder = n_entries % n_partitions
        partitions = []
        start = 0
        for pid in range(n_partitions):
            size = base + (1 if pid < remainder else 0)
            partitions.append(
                EntryPartition(pid, tuple(range(start, start + size)))
            )
            start += size
        return partitions
    if strategy == "stride":
        return [
            EntryPartition(pid, tuple(range(pid, n_entries, n_partitions)))
            for pid in range(n_partitions)
        ]
    if strategy == "work":
        return partition_positions_by_work(index, range(n_entries), n_partitions)
    raise ValueError(
        f"unknown strategy {strategy!r}; expected 'blocks', 'stride' or 'work'"
    )


def entry_work(index: InvertedIndex, position: int) -> int:
    """Estimated scan cost of one entry: its pair-incidence count."""
    k = index.provider_counts[position]
    return k * (k - 1) // 2


def partition_positions_by_work(
    index: InvertedIndex,
    positions: Iterable[int],
    n_partitions: int,
) -> list[EntryPartition]:
    """Split ``positions`` into cost-balanced shares (LPT greedy).

    Entries are assigned heaviest-first to the currently least-loaded
    partition, which keeps the load spread within the weight of a single
    entry of the optimum for this classic scheduling heuristic.  Ties
    break deterministically (earlier position first, lower partition id
    first) and each share's positions come back sorted in processing
    order, so results are reproducible run to run.

    Raises:
        ValueError: for a non-positive partition count.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    ordered = sorted(positions, key=lambda pos: (-entry_work(index, pos), pos))
    heap = [(0, pid) for pid in range(n_partitions)]
    shares: list[list[int]] = [[] for _ in range(n_partitions)]
    for pos in ordered:
        load, pid = heapq.heappop(heap)
        shares[pid].append(pos)
        heapq.heappush(heap, (load + entry_work(index, pos), pid))
    return [
        EntryPartition(pid, tuple(sorted(share)))
        for pid, share in enumerate(shares)
    ]


def partition_weights(index: InvertedIndex, partition: EntryPartition) -> int:
    """Load estimate for a partition: total pair incidences it contains."""
    return sum(entry_work(index, position) for position in partition.positions)


def assign_buckets_lpt(weights: Iterable[int], n_buckets: int) -> list[list[int]]:
    """Assign weighted tasks to buckets, LPT greedy (the cluster scheduler).

    The same longest-processing-time heuristic
    :func:`partition_positions_by_work` applies to entries, lifted one
    level: here the *tasks* are whole partitions (their weight is
    :func:`partition_weights`) and the buckets are cluster workers, so
    partition count stays independent of worker count — 7 balanced
    partitions schedule onto 1, 2 or 4 workers with identical results.
    Ties break deterministically (heavier first, then lower task index,
    then lower bucket id) and each bucket's tasks come back in task
    order.

    Raises:
        ValueError: for a non-positive bucket count.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    ordered = sorted(enumerate(weights), key=lambda iw: (-iw[1], iw[0]))
    heap = [(0, bucket_id) for bucket_id in range(n_buckets)]
    buckets: list[list[int]] = [[] for _ in range(n_buckets)]
    for task, weight in ordered:
        load, bucket_id = heapq.heappop(heap)
        buckets[bucket_id].append(task)
        heapq.heappush(heap, (load + weight, bucket_id))
    return [sorted(bucket) for bucket in buckets]
