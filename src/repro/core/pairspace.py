"""The pair-key codec and the slot universe of the vectorized kernels.

Every vectorized layer of the detector keys source pairs by the single
integer ``s1 * n_sources + s2`` (``s1 < s2`` for undirected pair state,
either order for directed copy probabilities).  This module owns that
format: the kernels, the verdict table, the snapshot store and its
reader all encode and decode through the functions below, so changing
the key is an edit here.  It also owns where per-pair state lives —
*slots*: the full ``n_sources ** 2`` key space while that is small
(dense layout), one slot per *observed* pair beyond it (sparse layout).
Real worlds are sparse in exactly the regime where the quadratic
allocation bites: with Zipf-shaped coverage a 10k-source world observes
tens of thousands of pairs out of a 10\\ :sup:`8` key space.

* :func:`encode_pair_keys` / :func:`decode_pair_keys` (arrays),
  :func:`encode_pairs` / :func:`decode_pairs` (the tuple forms) and
  :func:`pair_key` (one pair, Python ints) — the one true int64 key
  codec (at 50k sources the key reaches ``~2.5e9`` and would silently
  wrap in int32; everything routes through here).
* :class:`PairSpace` — the slot universe: ``slots()`` maps a key stream
  to compact indices (identity for the dense layout,
  ``np.searchsorted`` for the sparse one), ``decode()`` maps slots back
  to ``(s1, s2)`` pairs, ``zeros()`` allocates aligned state arrays.
  Because the sparse slot numbering comes from *sorted* unique keys it
  is monotone in the key — so stable sorts, ``np.unique`` grouping and
  ``np.add.at`` stream-order scatter-adds behave identically whether
  indexed by key or by slot, which is what lets the bound scans stay
  bit-identical to the reference in either layout.
* :func:`member_rows` — maybe-missing lookups of a key stream in a
  sorted key column (``np.searchsorted`` + equality mask).
* :func:`reduce_by_key` — scatter-add a keyed incidence stream into
  compact per-pair sums (dense ``np.bincount`` or sparse ``np.unique`` +
  ``np.add.at``; both are stream-order left folds, so the two layouts
  produce identical floats).
* :class:`PairValueMap` — a directed-pair float lookup (ACCUCOPY's copy
  probabilities) backed by sorted keys + ``np.searchsorted`` gather with
  a default for unobserved pairs, replacing the dense
  ``n_sources x n_sources`` matrix.
* :func:`resolve_pair_layout` — the ``"auto"`` heuristic: dense below a
  kernel's limit, sparse above it, with a module-level ``logging``
  warning naming the limit and the layout chosen, so leaving the dense
  fast path is observable, never silent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Collection, Sequence
import logging

import numpy as np

from .params import PAIR_LAYOUTS

logger = logging.getLogger(__name__)


def encode_pair_keys(
    src1: np.ndarray | Sequence[int],
    src2: np.ndarray | Sequence[int],
    n_sources: int,
) -> np.ndarray:
    """``s1 * n_sources + s2`` as int64, whatever the input dtype.

    The multiplication is forced to int64 so keys never wrap: at
    ``n_sources > 2**16`` the product exceeds int32 (the regression
    tests pin this at 70k sources).
    """
    s1 = np.asarray(src1).astype(np.int64, copy=False)
    s2 = np.asarray(src2).astype(np.int64, copy=False)
    return s1 * np.int64(n_sources) + s2


def decode_pair_keys(
    keys: np.ndarray, n_sources: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_pair_keys` into ``(s1, s2)`` arrays."""
    keys = np.asarray(keys).astype(np.int64, copy=False)
    return keys // n_sources, keys % n_sources


def decode_pairs(keys: np.ndarray, n_sources: int) -> list[tuple[int, int]]:
    """Pair keys as ``(s1, s2)`` tuples of Python ints, in ``keys`` order."""
    s1, s2 = decode_pair_keys(keys, n_sources)
    return list(zip(s1.tolist(), s2.tolist()))


def encode_pairs(
    pairs: Collection[tuple[int, int]], n_sources: int
) -> np.ndarray:
    """``(s1, s2)`` tuples as int64 keys, in iteration order.

    The inverse of :func:`decode_pairs`.  The tuples are flattened at C
    speed, so a pair-keyed dict or a set of pairs goes in as it is.
    """
    flat = np.fromiter(
        chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
    )
    return encode_pair_keys(flat[0::2], flat[1::2], n_sources)


def pair_key(s1: int, s2: int, n_sources: int) -> int:
    """The key of one pair, on Python ints.

    The scalar form of :func:`encode_pair_keys` for per-call lookups
    (:class:`~repro.core.result.DecisionView`, the snapshot reader):
    Python ints cannot wrap.  An id outside ``[0, n_sources)`` aliases
    a neighbouring pair's key, so callers range-check first.
    """
    return s1 * n_sources + s2


def member_rows(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look ``query`` keys up in a sorted unique key column.

    Returns:
        ``(rows, hit)``: ``hit[i]`` says whether ``query[i]`` is in
        ``keys``, and where it is ``rows[i]`` is its row.  Either array
        may be empty.
    """
    rows = np.searchsorted(keys, query)
    hit = rows < len(keys)
    hit[hit] = keys[rows[hit]] == query[hit]
    return rows, hit


def resolve_pair_layout(
    requested: str, n_sources: int, dense_limit: int, kernel: str
) -> str:
    """Resolve ``"auto"`` into a concrete layout for one kernel.

    The heuristic: dense flat arrays while ``n_sources ** 2`` fits under
    the kernel's ``dense_limit`` (scatter via ``np.bincount``, no sort),
    sparse compact slots beyond it.  Crossing the limit under ``"auto"``
    emits a :mod:`logging` warning naming the kernel, the limit hit and
    the layout chosen — the observable replacement for the silent
    pure-Python fallbacks this package shipped before the sparse layer
    — once per ``(kernel, n_sources, dense_limit)`` per process.

    Args:
        requested: ``"auto"``, ``"dense"`` or ``"sparse"`` (explicit
            layouts are honoured unconditionally).
        n_sources: the world's source count.
        dense_limit: the kernel's largest acceptable flat key space.
        kernel: label for the log record, e.g. ``"bound_kernel.EpochScan"``.

    Raises:
        ValueError: for an unknown layout name.
    """
    if requested not in PAIR_LAYOUTS:
        raise ValueError(
            f"pair_layout must be one of {PAIR_LAYOUTS}, got {requested!r}"
        )
    if requested != "auto":
        return requested
    if int(n_sources) * int(n_sources) <= dense_limit:
        return "dense"
    _warn_sparse(kernel, int(n_sources), dense_limit)
    return "sparse"


@lru_cache(maxsize=256)
def _warn_sparse(kernel: str, n_sources: int, dense_limit: int) -> None:
    """Log the auto switch once per ``(kernel, world size, limit)``.

    Every kernel resolves its layout on every call — several times per
    fusion round, once per streaming epoch — and the answer for one
    world never changes, so the cache keeps the record to the first
    call per process (a world that grows warns again).
    """
    logger.warning(
        "%s: pair key space %d (n_sources=%d) exceeds the dense limit %d; "
        "auto-selected the sparse pair layout",
        kernel,
        n_sources * n_sources,
        n_sources,
        dense_limit,
    )


class PairSpace:
    """The slot universe of a pair-keyed kernel.

    A *slot* is a compact index into per-pair state arrays.  The dense
    layout spends one slot per point of the full ``n_sources ** 2`` key
    space (slot == key, no indirection); the sparse layout spends one
    slot per *observed* pair, numbered by the rank of its key in the
    sorted-unique key array.  Sparse slot numbering is therefore
    monotone in the key, so any key-ordered computation (stable sorts,
    ``np.unique`` grouping, ascending-slot iteration) is order-identical
    between the two layouts.

    Attributes:
        n_sources: key stride.
        layout: ``"dense"`` or ``"sparse"``.
        keys: sorted unique int64 keys of the observed pairs (sparse
            layout only; ``None`` when dense).
        n_slots: state-array length (``n_sources ** 2`` dense, observed
            pair count sparse).
    """

    __slots__ = ("n_sources", "layout", "keys", "n_slots")

    def __init__(
        self, n_sources: int, layout: str, keys: np.ndarray | None = None
    ) -> None:
        self.n_sources = int(n_sources)
        self.layout = layout
        if layout == "dense":
            self.keys = None
            self.n_slots = self.n_sources * self.n_sources
        elif layout == "sparse":
            if keys is None:
                raise ValueError("sparse PairSpace needs the observed keys")
            self.keys = keys
            self.n_slots = len(keys)
        else:
            raise ValueError(f"layout must be 'dense' or 'sparse', got {layout!r}")

    @classmethod
    def dense(cls, n_sources: int) -> "PairSpace":
        """The identity space: slot == key over the full key space."""
        return cls(n_sources, "dense")

    @classmethod
    def from_keys(cls, n_sources: int, keys: np.ndarray) -> "PairSpace":
        """Sparse space over a (possibly duplicated, unsorted) key stream."""
        uniq = np.unique(np.asarray(keys).astype(np.int64, copy=False))
        return cls(n_sources, "sparse", uniq)

    def __len__(self) -> int:
        return self.n_slots

    def slots(self, keys: np.ndarray) -> np.ndarray:
        """Map member keys to their slots (identity dense, rank sparse).

        Sparse lookups assume membership: a key outside the observed set
        would alias another slot, so callers must build the space from a
        superset of every key they will ever present (use
        :meth:`PairValueMap.gather` for maybe-missing lookups).
        """
        if self.layout == "dense":
            return keys
        return np.searchsorted(self.keys, keys)

    def slot_keys(self, slots: np.ndarray) -> np.ndarray:
        """The int64 keys behind a slot array."""
        if self.layout == "dense":
            return np.asarray(slots).astype(np.int64, copy=False)
        return self.keys[slots]

    def decode(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slots back to ``(s1, s2)`` id arrays."""
        return decode_pair_keys(self.slot_keys(slots), self.n_sources)

    def zeros(self, dtype=np.float64) -> np.ndarray:
        """A zeroed per-slot state array."""
        return np.zeros(self.n_slots, dtype=dtype)


def reduce_by_key(
    n_sources: int,
    keys: np.ndarray,
    columns: Sequence[np.ndarray],
    layout: str,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scatter-add aligned float columns into compact per-key sums.

    Two strategies, identical floats:

    * ``"dense"``: scatter directly into the full flat key space with
      ``np.bincount`` and compact the *present* slots (presence comes
      from key occurrence, not column weight, so zero-weight rows
      survive);
    * ``"sparse"``: ``np.unique`` compacts the keys first and the sums
      land via ``np.add.at`` on the compacted arrays.

    Both scatters apply additions in stream order (exact left folds), so
    the layouts agree bit for bit.

    Returns:
        ``(uniq_keys, sums)`` — the sorted unique keys and one aligned
        float64 sum array per input column.
    """
    if layout == "dense":
        key_space = n_sources * n_sources
        present = np.bincount(keys, minlength=key_space)
        uniq = np.nonzero(present)[0]
        sums = [
            np.bincount(keys, weights=col, minlength=key_space)[uniq]
            for col in columns
        ]
    else:
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = []
        for col in columns:
            acc = np.zeros(len(uniq))
            np.add.at(acc, inverse, col)
            sums.append(acc)
    return uniq, sums


class PairValueMap:
    """Directed-pair float lookup with a default for unobserved pairs.

    ACCUCOPY's independence discounts read ``Pr(S -> S' | Phi)`` for
    arbitrary provider pairs; pairs the detector never opened are
    independent (probability 0).  The dense layout materializes the full
    ``n_sources x n_sources`` matrix; this sparse form keeps only the
    decided pairs — sorted int64 keys plus aligned values — and gathers
    with ``np.searchsorted`` + an equality mask, so memory is bounded by
    the number of *decisions*, not the key space, while the gathered
    floats are identical to the dense matrix lookup.
    """

    __slots__ = ("n_sources", "keys", "values", "default")

    def __init__(
        self,
        n_sources: int,
        keys: np.ndarray,
        values: np.ndarray,
        default: float = 0.0,
    ) -> None:
        self.n_sources = int(n_sources)
        self.keys = keys
        self.values = values
        self.default = default

    def gather(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Values for (broadcast) directed pairs; misses read ``default``."""
        query = encode_pair_keys(src, dst, self.n_sources)
        if len(self.keys) == 0:
            return np.full(query.shape, self.default)
        pos = np.searchsorted(self.keys, query)
        pos = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos] == query
        return np.where(hit, self.values[pos], self.default)
