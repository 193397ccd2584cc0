"""Set-similarity-join utilities for counting shared items between sources."""

from .overlap import PairCounts, count_shared_items

__all__ = [
    "PairCounts",
    "count_shared_items",
]
