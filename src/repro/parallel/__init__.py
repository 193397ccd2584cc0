"""Partitioned/parallel detection (the paper's Section VIII future work)."""

from .engine import detect_hybrid_parallel, detect_index_parallel
from .shm import SharedWorld, ShmWorldHandle, shared_memory_available

__all__ = [
    "SharedWorld",
    "ShmWorldHandle",
    "detect_hybrid_parallel",
    "detect_index_parallel",
    "shared_memory_available",
]
