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
* :class:`PairMap` — the lazy read-only ``pair -> row`` mapping over a
  sorted key column and named columns aligned with it: INDEX's verdicts,
  INCREMENTAL's bookkeeping and Section III's shared-item counts
  ``l(S1, S2)``, each read like the reference's dict.
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
from types import SimpleNamespace
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
    (:func:`key_row`, which every :class:`PairMap` read goes through,
    and the snapshot reader).
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
        :func:`member_rows` for maybe-missing lookups).
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


class PairMap(Mapping):
    """Read-only ``(s1, s2) -> row`` mapping over key-sorted columns.

    How the numpy backend keeps each per-pair structure the python
    reference holds as a ``pair -> row`` dict: INDEX's verdicts (rows
    are :class:`~repro.core.result.PairDecision`), INCREMENTAL's
    bookkeeping (:class:`~repro.core.bound.PairBookkeeping`) and
    Section III's shared-item counts ``l(S1, S2)`` (ints, from
    :meth:`from_counts`).  The kernels read :attr:`columns` as they are.
    Length, membership and iteration (ascending key order) read the key
    column only; ``make_row`` builds a row the first time
    ``[]`` / ``get`` / ``values()`` / ``items()`` reads it, and the row
    is memoised, so repeated reads return the same object.  Out-of-range
    ids are reported missing (see :func:`key_row`).

    Attributes:
        columns: the table: ``columns.keys`` holds the int64 pair keys,
            sorted ascending and unique, and the attribute of each name
            in ``names`` a column aligned with them.
        names: the columns a row is built from, in ``make_row``'s
            argument order.
        make_row: called with one Python value per column of ``names``.
    """

    __slots__ = ("columns", "names", "make_row", "_built")

    def __init__(self, columns, names: tuple[str, ...], make_row) -> None:
        self.columns = columns
        self.names = names
        self.make_row = make_row
        self._built: dict[int, object] = {}

    @classmethod
    def of(cls, keys: np.ndarray, make_row, **columns: np.ndarray) -> "PairMap":
        """A mapping over ``keys`` and the named ``columns``, in row order."""
        return cls(SimpleNamespace(keys=keys, **columns), tuple(columns), make_row)

    @classmethod
    def from_counts(cls, counts: Mapping) -> "PairMap":
        """A ``pair -> int`` mapping as the ``l`` column table, flattened at
        C speed and sorted once (a table passes through as it is)."""
        if isinstance(counts, cls):
            return counts
        keys = encode_pairs(counts)
        column = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        order = np.argsort(keys, kind="stable")
        return cls.of(keys[order], int, l=column[order])

    @property
    def materialized(self) -> int:
        """How many rows this mapping has built."""
        return len(self._built)

    def _build(self, start: int, stop: int) -> None:
        """Memoise the rows ``[start, stop)`` not built yet."""
        built = self._built
        values = (
            getattr(self.columns, name)[start:stop].tolist() for name in self.names
        )
        for row, made in enumerate(map(self.make_row, *values), start):
            built.setdefault(row, made)

    def __getitem__(self, pair):
        row = key_row(self.columns.keys, pair)
        if row < 0:
            raise KeyError(pair)
        if row not in self._built:
            self._build(row, row + 1)
        return self._built[row]

    def __contains__(self, pair) -> bool:
        return key_row(self.columns.keys, pair) >= 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter_pairs(self.columns.keys)

    def __len__(self) -> int:
        return len(self.columns.keys)

    def values(self) -> list:
        """Every row, in key order (builds the ones not yet read)."""
        if len(self._built) < len(self):
            self._build(0, len(self))
        return [self._built[row] for row in range(len(self))]

    def items(self) -> list:
        """``(pair, row)`` for every row, in key order."""
        return list(zip(self, self.values()))

    def __eq__(self, other) -> bool:
        if (
            isinstance(other, PairMap)
            and self.names == other.names
            and self.make_row == other.make_row
        ):
            mine, theirs = self.columns, other.columns
            return all(
                np.array_equal(getattr(mine, name), getattr(theirs, name))
                for name in ("keys",) + self.names
            )
        return Mapping.__eq__(self, other)

    def __reduce__(self):
        return PairMap, (self.columns, self.names, self.make_row)

    def __repr__(self) -> str:
        return f"PairMap({len(self)} pairs, {self.materialized} materialized)"
