"""NumPy-vectorized scoring kernel shared by PAIRWISE, INDEX and the engine.

The hot path of every non-early-terminating detector is the *entry scan*:
for each inverted-index entry (a value provided by ``k >= 2`` sources),
add Eq. (6)'s forward/backward log-contributions to every one of the
``k*(k-1)/2`` provider pairs.  The pure-Python implementations in
:mod:`repro.core.index_algo` (whose share scan the partitioned engine
runs too) and :mod:`repro.core.pairwise` do this with nested loops and
dict-keyed accumulators — one dict probe and two ``math.log`` calls per
(pair, shared value) incidence.  This module performs the same
computation columnarly:

1. **Columnar entries** (:class:`ColumnarEntries`): an entry set is four
   flat arrays — per-entry probability, per-entry main/tail flag, provider
   ids concatenated, and CSR-style offsets.  This is also the form the
   cluster ships a world to worker processes in (raw array buffers, not
   per-entry tuples of Python lists).
2. **Incidence expansion** (:func:`expand_incidences`): entries are
   grouped by provider count ``k`` so each group's upper triangle is
   produced by one fancy-indexing broadcast (``np.triu_indices``), giving
   flat ``(src1, src2, probability, main)`` streams over *all* incidences.
3. **Scoring** (:func:`score_incidences`):
   ``p*a_i*a_j + (q/n)*(1-a_i)*(1-a_j)`` is broadcast over the provider
   arrays and the forward/backward contributions come out of a single
   ``np.log`` per direction over the whole stream — no per-incidence
   Python bytecode at all.
4. **Compact pair accumulation** (:class:`PairTable`): pairs are keyed
   by the single int64 of :mod:`repro.core.pairspace` (``s1 < s2``) and
   the incidence stream is reduced into compact per-pair arrays by
   :func:`repro.core.pairspace.reduce_by_key` — a dense ``np.bincount``
   scatter while the pair grid fits under :data:`DENSE_KEY_SPACE`, a
   sort-based ``np.unique`` + ``np.add.at`` beyond it (or on request via
   ``CopyParams.pair_layout``), with identical floats either way.
   ``keys`` holds the sorted unique pair keys and ``c_fwd`` / ``c_bwd``
   / ``n_shared`` / ``saw_main`` are aligned with it.  Because the
   reduction is a plain sum, tables from disjoint entry shares merge
   associatively (:meth:`PairTable.merge`) — which is exactly what the
   map/reduce engine needs.

The pure-Python loops are deliberately **kept** as the reference
implementation (``backend="python"`` on :class:`~repro.core.params.CopyParams`):
they are the bit-exactness anchor the property tests compare
against (the vectorized path reorders floating-point additions, so
agreement is asserted to 1e-9 rather than bit-identity), and they
document the paper's algorithms line-by-line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..data.columns import distinct, take_csr
from .contribution import exact_posteriors
from .pairspace import (
    PairMap,
    PairSpace,
    decode_pairs,
    encode_pair_keys,
    member_rows,
    reduce_by_key,
    reduce_keys,
    resolve_pair_layout,
)
from .params import ACCURACY_CLAMP, CopyParams
from .result import PairColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data import Dataset
    from .index import InvertedIndex

#: Largest dense pair grid (``n_sources ** 2`` cells) the ``"auto"``
#: layout reduces with the dense ``np.bincount`` scatter; beyond it
#: (> ~2k sources) :func:`repro.core.pairspace.resolve_pair_layout`
#: switches — with a logged warning — to the sort-based ``np.unique`` +
#: ``np.add.at`` layout, which keeps memory bounded by the number of
#: *observed* pairs instead.
DENSE_KEY_SPACE = 1 << 22

#: Block sizing of every incidence walk that is not one whole-world
#: broadcast (the bound scans' epochs, INCREMENTAL's pass 1, the
#: ``l(S1, S2)`` count): a block closes once it holds this many
#: incidences (``C(k, 2)`` summed over its entries).  A block costs a
#: fixed vector overhead plus work linear in its incidences, so the
#: boundary follows incidence mass, not entry count (128 two-provider
#: entries are ~130 incidences, 128 forty-provider ones ~100k).  Larger
#: blocks stop paying: a bound scan replays a pair to the end of the
#: epoch it concludes in, and the per-incidence temporaries grow with it.
#: docs/ARCHITECTURE.md records the sweep behind the number; a change to
#: it is refereed by the ``batch_stock`` workload and
#: ``benchmarks/bench_scale_sweep.py``.
EPOCH_INCIDENCE_BUDGET = 32_768


def incidence_mass_bounds(counts: np.ndarray) -> list[int]:
    """Block boundaries ``[0, ..., len(counts)]`` by incidence mass.

    ``counts`` are the provider counts of an entry stream; a boundary
    falls wherever the cumulative mass ``sum C(k, 2)`` crosses a multiple
    of :data:`EPOCH_INCIDENCE_BUDGET`, so a block holds at most the
    budget plus one entry's incidences.
    """
    end = len(counts)
    bucket = np.cumsum(counts * (counts - 1) // 2) // EPOCH_INCIDENCE_BUDGET
    cuts = np.nonzero(np.diff(bucket))[0] + 1
    return [0, *cuts.tolist(), end] if end else [0]


@dataclass
class ColumnarEntries:
    """A set of index entries in struct-of-arrays (columnar) layout.

    Attributes:
        probs: ``P(D.v)`` per entry, shape ``(E,)``.
        main: True for non-tail entries, shape ``(E,)``.
        offsets: CSR offsets into ``providers``, shape ``(E + 1,)``.
        providers: concatenated provider ids, shape ``(offsets[-1],)``.
    """

    probs: np.ndarray
    main: np.ndarray
    offsets: np.ndarray
    providers: np.ndarray

    @property
    def n_entries(self) -> int:
        """Number of entries in the block."""
        return len(self.probs)

    @classmethod
    def from_index(cls, index: "InvertedIndex") -> "ColumnarEntries":
        """Columnarize ``index.entries`` entry by entry.

        The bridge from a ``"python"``-built index (and the tests'
        oracle for a ``"numpy"``-built one, which carries this table
        already); a subset is ``from_index(index).take(positions)``.
        """
        entries = index.entries
        flat: list[int] = []
        for entry in entries:
            flat.extend(entry.providers)
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum([len(e.providers) for e in entries], dtype=np.int64, out=offsets[1:])
        return cls(
            probs=np.asarray([e.probability for e in entries], dtype=np.float64),
            main=np.arange(len(entries)) < index.tail_start,
            offsets=offsets,
            providers=np.asarray(flat, dtype=np.int64),
        )

    def take(self, positions: Sequence[int] | np.ndarray) -> "ColumnarEntries":
        """Gather a subset of entries into a new columnar block.

        This is the worker-side half of the cluster's world broadcast:
        the whole world is shipped once and each worker slices out its
        partition with one vectorized gather instead of receiving a
        per-partition payload.

        Args:
            positions: entry positions to keep, in the order they should
                appear in the result (the engine passes them in
                processing order).
        """
        pos = np.asarray(positions, dtype=np.int64)
        offsets, providers = take_csr(self.offsets, self.providers, pos)
        return ColumnarEntries(
            probs=self.probs[pos],
            main=self.main[pos],
            offsets=offsets,
            providers=providers,
        )

    @classmethod
    def from_value_groups(
        cls, dataset: "Dataset", probabilities: Sequence[float]
    ) -> "ColumnarEntries":
        """Columnarize every multi-provider value of a dataset.

        This is PAIRWISE's view of the world: no index, no tail — every
        shared value contributes, so ``main`` is all-True.
        """
        table = dataset.columns
        return cls(
            probs=np.asarray(probabilities, dtype=np.float64)[table.shared_values],
            main=np.ones(len(table.shared_values), dtype=bool),
            offsets=table.shared_offsets,
            providers=table.shared_providers,
        )


#: The named arrays of a broadcast world, in pack order: the four
#: :class:`ColumnarEntries` columns plus the accuracy vector.
WORLD_FIELDS = ("probs", "main", "offsets", "providers", "accuracies")


def world_arrays(
    cols: ColumnarEntries, accuracies: Sequence[float] | np.ndarray
) -> dict[str, np.ndarray]:
    """Pack a columnar world + accuracies as :data:`WORLD_FIELDS` arrays.

    The form a world crosses a process boundary in (the cluster's
    ``world``/``world-update`` frames); receivers rebuild it with
    :func:`world_from_arrays`.
    """
    return {
        "probs": np.ascontiguousarray(cols.probs, dtype=np.float64),
        # bool stored as uint8 for a stable cross-process dtype token.
        "main": np.ascontiguousarray(cols.main, dtype=np.uint8),
        "offsets": np.ascontiguousarray(cols.offsets, dtype=np.int64),
        "providers": np.ascontiguousarray(cols.providers, dtype=np.int64),
        "accuracies": np.ascontiguousarray(accuracies, dtype=np.float64),
    }


def world_from_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[ColumnarEntries, np.ndarray]:
    """Zero-copy ``(ColumnarEntries, accuracies)`` over packed world arrays.

    The views alias ``arrays``: rewriting those buffers in place (a new
    fusion round's probabilities and accuracies) is seen through them.
    """
    cols = ColumnarEntries(
        probs=arrays["probs"],
        main=arrays["main"].view(bool),
        offsets=arrays["offsets"],
        providers=arrays["providers"],
    )
    return cols, arrays["accuracies"]


def expand_incidences(
    cols: ColumnarEntries,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand entries into flat per-incidence streams.

    Entries are grouped by provider count ``k``; each group's full upper
    triangle is produced by one broadcast, so the Python-level loop runs
    once per *distinct k*, not once per entry.

    Returns:
        ``(src1, src2, probs, main)`` — for every (pair, shared value)
        incidence, the smaller/larger provider id, the entry probability
        and the entry's main flag.  Empty arrays when no entry has two
        providers.
    """
    counts = np.diff(cols.offsets)
    src1_parts: list[np.ndarray] = []
    src2_parts: list[np.ndarray] = []
    prob_parts: list[np.ndarray] = []
    main_parts: list[np.ndarray] = []
    for k in distinct(counts).tolist():
        if k < 2:
            continue
        rows = np.nonzero(counts == k)[0]
        starts = cols.offsets[rows]
        mat = cols.providers[starts[:, None] + np.arange(k)]
        iu, ju = np.triu_indices(int(k), 1)
        a = mat[:, iu].ravel()
        b = mat[:, ju].ravel()
        # Providers are sorted per entry, but normalise anyway so the
        # pair key is always (min, max).
        src1_parts.append(np.minimum(a, b))
        src2_parts.append(np.maximum(a, b))
        t = len(iu)
        prob_parts.append(np.repeat(cols.probs[rows], t))
        main_parts.append(np.repeat(cols.main[rows], t))
    if not src1_parts:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0), np.empty(0, dtype=bool)
    return (
        np.concatenate(src1_parts),
        np.concatenate(src2_parts),
        np.concatenate(prob_parts),
        np.concatenate(main_parts),
    )


def expand_incidences_ordered(
    offsets: np.ndarray, providers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a columnar entry block into *entry-ordered* incidence streams.

    Provider slot ``i`` of an entry pairs with every later slot of the
    same entry, so the streams are a few ``np.repeat`` passes over the
    per-slot partner counts — one vector pass per stream, no loop over
    entries or provider counts, and already in **entry processing
    order**.  The early-terminating scans need that order: their
    per-pair accumulation must replay the reference's left-to-right
    addition order bit-for-bit, and ``np.add.at`` preserves exactly the
    stream order it is handed.

    Args:
        offsets: CSR offsets into ``providers`` starting at 0, shape
            ``(E + 1,)``.
        providers: concatenated provider ids (sorted within each entry).

    Returns:
        ``(row, islot, jslot)`` aligned streams over all incidences, in
        entry order (and triangle order within an entry): the entry index
        ``row`` and the flat ``providers`` slots of the smaller-/larger-id
        provider.  Everything else (pair ids, probabilities, per-slot
        scan counts) is a gather away.
    """
    counts = np.diff(offsets)
    slot = np.arange(offsets[-1], dtype=np.int64)
    # Partners of each slot: the slots after it in its own entry.
    partners = np.repeat(offsets[1:], counts) - slot - 1
    islot = np.repeat(slot, partners)
    first = np.cumsum(partners) - partners  # stream position of slot's 1st pair
    stream = np.arange(len(islot), dtype=np.int64)
    jslot = stream - np.repeat(first - slot - 1, partners)
    row = np.repeat(np.repeat(np.arange(len(counts)), counts), partners)
    return row, islot, jslot


def score_incidence_args(
    probs: np.ndarray,
    acc1: np.ndarray,
    acc2: np.ndarray,
    params: CopyParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (6) *log arguments* with the reference's exact arithmetic.

    :func:`score_incidences` is free to associate the float math however
    is fastest because the exhaustive scans are compared at 1e-9.  The
    bound scans are held to a harder standard — bit-identical decisions —
    so this variant mirrors the scalar reference expression by expression
    (``q * (1/n)`` rather than ``q / n``, same multiplication order) and
    stops *before* the log: IEEE-754 ``+ * /`` are correctly rounded and
    therefore identical between NumPy and scalar Python, whereas
    ``np.log``'s SIMD path may differ from ``math.log`` by an ulp.  The
    caller applies ``math.log`` per element to finish the job.

    Returns:
        ``(arg_fwd, arg_bwd)`` — the operands of the forward/backward
        ``ln`` per incidence.
    """
    s = params.s
    one_minus_s = 1.0 - s
    inv_n = 1.0 / params.n
    q = 1.0 - probs
    q_over_n = q * inv_n
    na1 = 1.0 - acc1
    na2 = 1.0 - acc2
    singles1 = probs * acc1 + q * na1
    singles2 = probs * acc2 + q * na2
    denom = probs * acc1 * acc2 + q_over_n * na1 * na2
    arg_fwd = one_minus_s + s * singles2 / denom
    arg_bwd = one_minus_s + s * singles1 / denom
    return arg_fwd, arg_bwd


def clamp_accuracies(accuracies: Sequence[float]) -> np.ndarray:
    """Vectorized :meth:`CopyParams.clamp_accuracy` over a source array."""
    return np.clip(
        np.asarray(accuracies, dtype=np.float64),
        ACCURACY_CLAMP,
        1.0 - ACCURACY_CLAMP,
    )


def score_incidences(
    probs: np.ndarray,
    acc1: np.ndarray,
    acc2: np.ndarray,
    params: CopyParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (6) in both directions over an incidence stream.

    Args:
        probs: ``P(D.v)`` per incidence.
        acc1: clamped accuracy of the smaller-id provider per incidence.
        acc2: clamped accuracy of the larger-id provider per incidence.
        params: model parameters.

    Returns:
        ``(fwd, bwd)`` — the ``C->`` / ``C<-`` log-contributions.
    """
    s = params.s
    one_minus_s = 1.0 - s
    q = 1.0 - probs
    denom = probs * acc1 * acc2 + (q / params.n) * (1.0 - acc1) * (1.0 - acc2)
    fwd = np.log(one_minus_s + s * (probs * acc2 + q * (1.0 - acc2)) / denom)
    bwd = np.log(one_minus_s + s * (probs * acc1 + q * (1.0 - acc1)) / denom)
    return fwd, bwd


@dataclass
class PairTable:
    """Per-pair accumulators in flat-array layout.

    Pairs are keyed by :func:`~repro.core.pairspace.encode_pair_keys`
    with ``s1 < s2``; ``keys`` is sorted and unique, and the value
    arrays are aligned with it.

    Attributes:
        n_sources: the world's source count — only tables of one
            world merge.
        keys: unique pair keys, sorted ascending.
        c_fwd: accumulated ``C->`` per pair.
        c_bwd: accumulated ``C<-`` per pair.
        n_shared: number of shared-value incidences per pair.
        saw_main: True when at least one incidence came from a non-tail
            entry (INDEX opens only such pairs).
    """

    n_sources: int
    keys: np.ndarray
    c_fwd: np.ndarray
    c_bwd: np.ndarray
    n_shared: np.ndarray
    saw_main: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def empty(cls, n_sources: int) -> "PairTable":
        """A zero-pair table for a world of ``n_sources`` sources."""
        return cls(
            n_sources=n_sources,
            keys=np.empty(0, dtype=np.int64),
            c_fwd=np.empty(0),
            c_bwd=np.empty(0),
            n_shared=np.empty(0, dtype=np.int64),
            saw_main=np.empty(0, dtype=bool),
        )

    @classmethod
    def _from_sums(cls, n_sources: int, keys: np.ndarray, sums) -> "PairTable":
        """A table from the reduced ``c_fwd, c_bwd, n_shared, saw_main``
        float sums of the pairs behind ``keys``."""
        c_fwd, c_bwd, n_shared, saw_main = sums
        return cls(
            n_sources, keys, c_fwd, c_bwd, n_shared.astype(np.int64), saw_main > 0.0
        )

    @classmethod
    def from_incidences(
        cls,
        n_sources: int,
        src1: np.ndarray,
        src2: np.ndarray,
        fwd: np.ndarray,
        bwd: np.ndarray,
        main: np.ndarray,
        layout: str = "auto",
    ) -> "PairTable":
        """Reduce an incidence stream (``src1 < src2`` per incidence) to
        per-pair accumulators.

        The grouping is :func:`repro.core.pairspace.reduce_by_key` —
        dense ``np.bincount`` under :data:`DENSE_KEY_SPACE`, sparse
        ``np.unique`` + ``np.add.at`` beyond it (or on request), with
        identical floats either way: the vectorized replacement for the
        Python backend's per-incidence dict churn (``cell[0] += ...``).
        """
        if len(src1) == 0:
            return cls.empty(n_sources)
        layout = resolve_pair_layout(
            layout, n_sources, DENSE_KEY_SPACE, "kernel.PairTable"
        )
        columns = (fwd, bwd, np.ones(len(src1)), main.astype(np.float64))
        return cls._from_sums(
            n_sources, *reduce_by_key(n_sources, src1, src2, columns, layout)
        )

    @classmethod
    def merge(cls, tables: Sequence["PairTable"]) -> "PairTable":
        """Associatively merge partial tables (the engine's reduce step).

        The keys arrive encoded and are grouped as they are
        (:func:`~repro.core.pairspace.reduce_keys`), so no layout decodes
        them; the sums run in stream order, the floats any layout gives.
        Occupancy comes from pair *presence*, not incidence counts:
        merged tables may carry pairs with zero incidences (e.g.
        PAIRWISE's pure-penalty rows) that must survive.
        """
        tables = [t for t in tables if len(t)]
        if not tables:
            raise ValueError("cannot merge zero non-empty tables")
        n_sources = tables[0].n_sources
        if any(t.n_sources != n_sources for t in tables):
            raise ValueError("cannot merge tables with different source counts")
        if len(tables) == 1:
            return tables[0]
        columns = [
            np.concatenate([getattr(t, name) for t in tables]).astype(np.float64)
            for name in ("c_fwd", "c_bwd", "n_shared", "saw_main")
        ]
        keys = np.concatenate([t.keys for t in tables])
        return cls._from_sums(n_sources, *reduce_keys(keys, columns))


def scan_columnar(
    cols: ColumnarEntries,
    accuracies: Sequence[float],
    params: CopyParams,
    n_sources: int,
) -> PairTable:
    """The vectorized entry scan: columnar entries in, pair table out.

    The map step of every numpy executor, the cluster workers' included.
    """
    src1, src2, probs, main = expand_incidences(cols)
    acc = clamp_accuracies(accuracies)
    fwd, bwd = score_incidences(probs, acc[src1], acc[src2], params)
    return PairTable.from_incidences(
        n_sources, src1, src2, fwd, bwd, main, layout=params.pair_layout
    )


def count_shared_items_columnar(
    dataset: "Dataset", layout: str = "auto"
) -> PairMap:
    """Vectorized ``l(S1, S2)`` counting.

    Items play the role of entries: each item's provider set expands to
    its pair triangle, walked in blocks of :data:`EPOCH_INCIDENCE_BUDGET`
    incidences (:func:`incidence_mass_bounds`) so the per-incidence
    temporaries stay one block's size however many items the world has.
    The dense layout adds each block's tallies into the ``n_sources**2``
    grid; the sparse one counts each block's keys and merges the
    ``(keys, counts)`` once at the end.  Produces exactly the same
    mapping as the inverted-list join of
    :func:`repro.core.index.count_shared_items`, an order of magnitude
    faster on dense worlds — as the column table it computes (sorted
    keys, int64 counts), which the kernels read without building a tuple
    per pair.
    """
    table = dataset.columns
    offsets, providers = table.item_prov_offsets, table.item_prov_sources
    n_sources = dataset.n_sources
    layout = resolve_pair_layout(
        layout, n_sources, DENSE_KEY_SPACE, "kernel.count_shared_items_columnar"
    )
    space = PairSpace.dense(n_sources)
    dense = space.zeros(dtype=np.int64) if layout == "dense" else None
    key_parts, count_parts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    bounds = incidence_mass_bounds(np.diff(offsets))
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        lo = offsets[b0]
        block = providers[lo : offsets[b1]]
        _, i, j = expand_incidences_ordered(offsets[b0 : b1 + 1] - lo, block)
        if dense is not None:
            np.add.at(dense, space.slots(block[i], block[j]), 1)
        else:
            keys, counts = np.unique(
                encode_pair_keys(block[i], block[j]), return_counts=True
            )
            key_parts.append(keys)
            count_parts.append(counts)
    if dense is not None:
        cells = np.nonzero(dense)[0]
        keys, counts = space.slot_keys(cells), dense[cells]
    else:
        keys, (counts,) = reduce_keys(
            np.concatenate(key_parts), [np.concatenate(count_parts)]
        )
    return PairMap.of(keys, int, l=counts.astype(np.int64, copy=False))


def shared_item_counts(shared_items: PairMap, keys: np.ndarray) -> np.ndarray:
    """``l(S1, S2)`` per pair key: one membership-checked probe of the table.

    Raises:
        KeyError: naming the first pair that shares no item (a bare
            ``searchsorted`` would answer with its neighbour's count).
    """
    rows, hit = member_rows(shared_items.columns.keys, keys)
    if not hit.all():
        raise KeyError(decode_pairs(keys[~hit][:1])[0])
    return shared_items.columns.l[rows]


def decide_pairs(
    table: PairTable,
    shared_items: PairMap,
    params: CopyParams,
    require_main: bool = True,
) -> PairColumns:
    """Finalize a pair table into INDEX-style verdict columns.

    Applies the different-value penalty ``ln(1-s) * (l - n)`` and Eq. (2)
    to every pair (dropping tail-only pairs when ``require_main``); the
    posteriors come from
    :func:`~repro.core.contribution.exact_posteriors`, bit-equal to the
    scalar :func:`~repro.core.contribution.posterior`.

    Args:
        table: accumulated per-pair scores.
        shared_items: the ``l(S1, S2)`` count table.
        params: model parameters.
        require_main: drop pairs never seen in a non-tail entry (INDEX's
            skip rule); pass False to decide every accumulated pair.
    """
    keep = table.saw_main if require_main else slice(None)
    keys = table.keys[keep]
    n_diff = shared_item_counts(shared_items, keys) - table.n_shared[keep]
    penalty = n_diff * params.ln_one_minus_s
    c_fwd = table.c_fwd[keep] + penalty
    c_bwd = table.c_bwd[keep] + penalty
    independent, forward, backward = exact_posteriors(c_fwd, c_bwd, params)
    return PairColumns(
        keys,
        c_fwd,
        c_bwd,
        independent,
        forward,
        backward,
        copying=independent <= 0.5,
        early=np.zeros(len(keys), dtype=bool),
    )
