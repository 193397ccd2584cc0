"""The pair-key codec and the slot universe of the vectorized kernels.

Every vectorized layer of the detector keys source pairs by the single
int64 ``(s1 << 32) | s2`` (``s1 < s2`` for undirected pair state,
either order for directed copy probabilities).  The key is a function
of the two ids alone — a pair keeps its key however many sources the
world grows to, so per-pair state and published snapshots survive a
newcomer — and it orders pairs lexicographically in ``(s1, s2)``.  This
module owns that format: the kernels, the verdict table, the snapshot
store and its reader all encode and decode through the functions below,
so changing the key is an edit here.  It also owns where per-pair state
lives — *slots*: the full ``n_sources ** 2`` grid while that is small
(dense layout), one slot per *observed* pair beyond it (sparse layout).
Real worlds are sparse in exactly the regime where the quadratic
allocation bites: with Zipf-shaped coverage a 10k-source world observes
tens of thousands of pairs out of 10\\ :sup:`8` cells.

* :func:`encode_pair_keys` / :func:`decode_pair_keys` (arrays),
  :func:`encode_pairs` / :func:`decode_pairs` / :func:`iter_pairs` (the
  tuple forms) and :func:`pair_key` (one pair, Python ints) — the one
  true key codec, valid for ids in ``[0, ID_LIMIT)``.
* :class:`PairSpace` — the slot universe: ``slots()`` maps a pair
  stream to compact indices (the grid cell ``s1 * n_sources + s2`` for
  the dense layout, ``np.searchsorted`` over the observed keys for the
  sparse one), ``slot_keys()`` / ``decode()`` map slots back to keys /
  ``(s1, s2)`` pairs, ``zeros()`` allocates aligned state arrays.
  Both slot numberings are monotone in the key — so stable sorts,
  ``np.unique`` grouping and ``np.add.at`` stream-order scatter-adds
  behave identically whether indexed by key or by slot, which is what
  lets the bound scans stay bit-identical to the reference in either
  layout.
* :func:`member_rows` / :func:`key_row` — maybe-missing lookups of a
  key stream / of one ``(s1, s2)`` pair in a sorted key column
  (``np.searchsorted`` + equality check).
* :func:`reduce_by_key` / :func:`reduce_keys` — scatter-add a pair
  incidence stream (given as id arrays / as keys) into compact per-pair
  sums (dense ``np.bincount`` or sparse ``np.unique`` + ``np.add.at``;
  both are stream-order left folds, so the two layouts produce identical
  floats).
* :class:`PairValueMap` — pair-keyed values as sorted keys + one aligned
  column: Section III's shared-item counts ``l(S1, S2)`` (it reads like
  the reference's ``pair -> int`` dict) and ACCUCOPY's directed copy
  probabilities (``gather`` with a default for unobserved pairs,
  replacing the dense ``n_sources x n_sources`` matrix).
* :func:`resolve_pair_layout` — the ``"auto"`` heuristic: dense below a
  kernel's limit, sparse above it, with a module-level ``logging``
  warning naming the limit and the layout chosen, so leaving the dense
  fast path is observable, never silent.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from operator import index
from typing import Collection, Iterator, Sequence
import logging

import numpy as np

from .params import PAIR_LAYOUTS

logger = logging.getLogger(__name__)

#: Bits of a pair key holding ``s2``; ``s1`` sits above them.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1

#: Source ids in ``[0, ID_LIMIT)`` have keys: the key of any two of
#: them, in either order, is a non-negative int64.
ID_LIMIT = 1 << (_ID_BITS - 1)


def encode_pair_keys(
    src1: np.ndarray | Sequence[int], src2: np.ndarray | Sequence[int]
) -> np.ndarray:
    """``(s1 << 32) | s2`` as int64, whatever the input dtype.

    The ids are widened before the shift, so int32 inputs never wrap.
    """
    s1 = np.asarray(src1).astype(np.int64, copy=False)
    s2 = np.asarray(src2).astype(np.int64, copy=False)
    return (s1 << _ID_BITS) | s2


def decode_pair_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_pair_keys` into ``(s1, s2)`` arrays."""
    keys = np.asarray(keys).astype(np.int64, copy=False)
    return keys >> _ID_BITS, keys & _ID_MASK


def iter_pairs(keys: np.ndarray) -> Iterator[tuple[int, int]]:
    """:func:`decode_pairs`, each tuple built when the iterator reaches it."""
    s1, s2 = decode_pair_keys(keys)
    return zip(s1.tolist(), s2.tolist())


def decode_pairs(keys: np.ndarray) -> list[tuple[int, int]]:
    """Pair keys as ``(s1, s2)`` tuples of Python ints, in ``keys`` order."""
    return list(iter_pairs(keys))


def encode_pairs(pairs: Collection[tuple[int, int]]) -> np.ndarray:
    """``(s1, s2)`` tuples as int64 keys, in iteration order.

    The inverse of :func:`decode_pairs`.  The tuples are flattened at C
    speed, so a pair-keyed dict or a set of pairs goes in as it is.
    """
    flat = np.fromiter(
        chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
    )
    return encode_pair_keys(flat[0::2], flat[1::2])


def pair_key(s1: int, s2: int) -> int:
    """The key of one pair, on Python ints.

    The scalar form of :func:`encode_pair_keys` for per-call lookups
    (:class:`~repro.core.result.DecisionView`, the snapshot reader).
    Only ids in ``[0, ID_LIMIT)`` have a key of their own, so callers
    range-check first.
    """
    return (s1 << _ID_BITS) | s2


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


def key_row(keys: np.ndarray, pair) -> int:
    """Row of ``pair`` in a sorted key column, -1 when it is not in it.

    Only ``0 <= s1 < s2 < ID_LIMIT`` has a key of its own (a negative or
    oversized id would spill into the other id's bits), so the lookup
    checks that first: a pair that cannot have been observed is reported
    missing, never answered with another's row.
    """
    try:
        s1, s2 = pair
        s1, s2 = index(s1), index(s2)  # Python ints: the key cannot wrap
    except (TypeError, ValueError):
        return -1
    if not 0 <= s1 < s2 < ID_LIMIT:
        return -1
    key = pair_key(s1, s2)
    row = int(keys.searchsorted(key))
    if row < len(keys) and keys.item(row) == key:
        return row
    return -1


def resolve_pair_layout(
    requested: str, n_sources: int, dense_limit: int, kernel: str
) -> str:
    """Resolve ``"auto"`` into a concrete layout for one kernel.

    The heuristic: the dense grid while ``n_sources ** 2`` fits under
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
        dense_limit: the kernel's largest acceptable dense grid (cells).
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
        "%s: dense pair grid %d (n_sources=%d) exceeds the dense limit %d; "
        "auto-selected the sparse pair layout",
        kernel,
        n_sources * n_sources,
        n_sources,
        dense_limit,
    )


class PairSpace:
    """The slot universe of a pair-keyed kernel.

    A *slot* is a compact index into per-pair state arrays.  The dense
    layout spends one slot per cell of the full ``n_sources ** 2`` grid
    (slot ``s1 * n_sources + s2``, no lookup — the grid is private to
    this module and never leaves it as a key); the sparse layout spends
    one slot per *observed* pair, numbered by the rank of its key in
    the sorted-unique key array.  Both numberings are monotone in the
    key, so any key-ordered computation (stable sorts, ``np.unique``
    grouping, ascending-slot iteration) is order-identical between the
    two layouts.

    Attributes:
        layout: ``"dense"`` or ``"sparse"``.
        n_sources: side of the dense grid (``None`` when sparse).
        keys: sorted unique int64 keys of the observed pairs (``None``
            when dense).
        n_slots: state-array length (``n_sources ** 2`` dense, observed
            pair count sparse).
    """

    __slots__ = ("layout", "n_sources", "keys", "n_slots")

    def __init__(
        self,
        layout: str,
        n_sources: int | None = None,
        keys: np.ndarray | None = None,
    ) -> None:
        self.layout = layout
        self.n_sources = n_sources
        self.keys = keys
        if layout == "dense":
            self.n_slots = n_sources * n_sources
        elif layout == "sparse":
            if keys is None:
                raise ValueError("sparse PairSpace needs the observed keys")
            self.n_slots = len(keys)
        else:
            raise ValueError(f"layout must be 'dense' or 'sparse', got {layout!r}")

    @classmethod
    def dense(cls, n_sources: int) -> "PairSpace":
        """The full grid: one slot per ``(s1, s2)`` cell."""
        return cls("dense", n_sources=int(n_sources))

    @classmethod
    def sparse(cls, keys: np.ndarray) -> "PairSpace":
        """One slot per key of a sorted unique int64 key array."""
        return cls("sparse", keys=keys)

    def __len__(self) -> int:
        return self.n_slots

    def slots(self, src1: np.ndarray, src2: np.ndarray) -> np.ndarray:
        """Map member pairs to their slots (grid cell dense, rank sparse).

        Sparse lookups assume membership: a pair outside the observed
        set would alias another slot, so callers must build the space
        from a superset of every pair they will ever present (use
        :meth:`PairValueMap.gather` for maybe-missing lookups).
        """
        if self.layout == "dense":
            return src1 * self.n_sources + src2
        return self.key_slots(encode_pair_keys(src1, src2))

    def key_slots(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`slots` of member pairs that arrive keyed already.

        The sparse layout probes the keys as they are; only the dense
        grid decodes them.
        """
        if self.layout == "dense":
            return self.slots(*decode_pair_keys(keys))
        return np.searchsorted(self.keys, keys)

    def slot_keys(self, slots: np.ndarray) -> np.ndarray:
        """The int64 keys behind a slot array."""
        if self.layout == "dense":
            return encode_pair_keys(*self.decode(slots))
        return self.keys[slots]

    def decode(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slots back to ``(s1, s2)`` id arrays."""
        if self.layout == "dense":
            return slots // self.n_sources, slots % self.n_sources
        return decode_pair_keys(self.keys[slots])

    def zeros(self, dtype=np.float64) -> np.ndarray:
        """A zeroed per-slot state array."""
        return np.zeros(self.n_slots, dtype=dtype)


def reduce_by_key(
    n_sources: int,
    src1: np.ndarray,
    src2: np.ndarray,
    columns: Sequence[np.ndarray],
    layout: str,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scatter-add aligned float columns into compact per-pair sums.

    Two strategies, identical floats:

    * ``"dense"``: scatter directly into the full :class:`PairSpace`
      grid with ``np.bincount`` and compact the *present* cells
      (presence comes from pair occurrence, not column weight, so
      zero-weight rows survive);
    * ``"sparse"``: ``np.unique`` compacts the keys first and the sums
      land via ``np.add.at`` on the compacted arrays.

    Both scatters apply additions in stream order (exact left folds), so
    the layouts agree bit for bit.

    Returns:
        ``(uniq_keys, sums)`` — the sorted unique pair keys and one
        aligned float64 sum array per input column.
    """
    if layout != "dense":
        return reduce_keys(encode_pair_keys(src1, src2), columns)
    space = PairSpace.dense(n_sources)
    cells = space.slots(src1, src2)
    present = np.bincount(cells, minlength=len(space))
    uniq = np.nonzero(present)[0]
    sums = [
        np.bincount(cells, weights=col, minlength=len(space))[uniq]
        for col in columns
    ]
    return space.slot_keys(uniq), sums


def reduce_keys(
    keys: np.ndarray, columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`reduce_by_key`'s sparse strategy for a pair stream that
    arrives keyed already (merging partial tables): the keys are grouped
    as they are, never decoded.
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = []
    for col in columns:
        acc = np.zeros(len(uniq))
        np.add.at(acc, inverse, col)
        sums.append(acc)
    return uniq, sums


class PairValueMap(Mapping):
    """Pair-keyed values in two aligned columns: sorted keys, one value each.

    Section III's shared-item counts ``l(S1, S2)`` (``s1 < s2`` keys,
    int64 counts) are one: the kernels read :attr:`keys` and
    :attr:`column` as they are, and the mapping face reads like the
    reference's ``pair -> int`` dict — ``table[pair]`` (``KeyError`` for
    a pair sharing no item), ``len``, ascending iteration, ``values()``,
    ``==`` a dict — building tuples only when someone iterates.
    ACCUCOPY's ``Pr(S -> S' | Phi)`` (directed keys, floats) are the
    other: :meth:`gather` reads arbitrary provider pairs, ``default``
    (independent, 0) for pairs the detector never opened, so memory is
    bounded by the *decisions*, not the source count, and the floats
    are identical to the dense ``n_sources x n_sources`` matrix lookup.

    Attributes:
        keys: int64 pair keys, sorted ascending, unique.
        column: the values, aligned with ``keys``.
        default: what :meth:`gather` reads for a pair not in ``keys``.
    """

    __slots__ = ("keys", "column", "default")

    def __init__(
        self, keys: np.ndarray, column: np.ndarray, default: float = 0.0
    ) -> None:
        self.keys = keys
        self.column = column
        self.default = default

    @classmethod
    def from_counts(cls, counts: Mapping) -> "PairValueMap":
        """A ``pair -> int`` mapping as a table, flattened at C speed and
        sorted once (a table passes through as it is)."""
        if isinstance(counts, cls):
            return counts
        keys = encode_pairs(counts)
        column = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        order = np.argsort(keys, kind="stable")
        return cls(keys[order], column[order])

    def __getitem__(self, pair):
        row = key_row(self.keys, pair)
        if row < 0:
            raise KeyError(pair)
        return self.column[row].item()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter_pairs(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def values(self) -> list:
        """Every value as a Python scalar, in key order."""
        return self.column.tolist()

    def items(self) -> list:
        """``(pair, value)`` for every row, in key order."""
        return list(zip(self, self.values()))

    def gather(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Values for (broadcast) directed pairs; misses read ``default``."""
        query = encode_pair_keys(src, dst)
        if len(self.keys) == 0:
            return np.full(query.shape, self.default)
        pos = np.searchsorted(self.keys, query)
        pos = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos] == query
        return np.where(hit, self.column[pos], self.default)
