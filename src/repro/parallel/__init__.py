"""Partitioned/parallel detection (the paper's Section VIII future work)."""

from .engine import detect_hybrid_parallel, detect_index_parallel

__all__ = [
    "detect_hybrid_parallel",
    "detect_index_parallel",
]
