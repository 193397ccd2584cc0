"""Partitioned/parallel detection (the paper's Section VIII future work)."""

from .engine import detect_hybrid_parallel, detect_index_parallel
from .partition import (
    EntryPartition,
    PartitionStrategy,
    entry_work,
    partition_entries,
    partition_positions_by_work,
    partition_weights,
)
from .shm import SharedWorld, ShmWorldHandle, shared_memory_available

__all__ = [
    "EntryPartition",
    "PartitionStrategy",
    "SharedWorld",
    "ShmWorldHandle",
    "detect_hybrid_parallel",
    "detect_index_parallel",
    "entry_work",
    "partition_entries",
    "partition_positions_by_work",
    "partition_weights",
    "shared_memory_available",
]
