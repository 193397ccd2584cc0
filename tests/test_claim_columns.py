"""``Dataset.columns``: the one claim table every NumPy path gathers from.

The pure-Python walks — ``Dataset.providers``, ``claims``,
``item_value_table()``, ``choose_values``, ``count_shared_items`` and the
item-row builder the store used before the table existed — are the
oracle; the table must equal them as arrays, be built once, and be
impossible to write through.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import CopyParams, EntryOrdering, InvertedIndex
from repro.core.index import count_shared_items
from repro.core.kernel import ColumnarEntries, count_shared_items_columnar
from repro.data import DatasetBuilder, motivating_example
from repro.data.columns import ClaimColumns, choose_values_columnar, take_csr
from repro.fusion.accu import choose_values
from repro.serving.store import ItemRows
from tests.strategies import saturated_worlds, worlds


def _array_fields(table: ClaimColumns) -> dict[str, np.ndarray]:
    return {k: v for k, v in vars(table).items() if isinstance(v, np.ndarray)}


def _csr_rows(offsets: np.ndarray, flat: np.ndarray) -> list[list[int]]:
    bounds = offsets.tolist()
    return [flat[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def _with_orphan_value():
    """A ledger-shaped world: an overwritten claim leaves a value id
    nobody provides, and one source claims nothing."""
    builder = DatasetBuilder()
    builder.ensure_source("idle")
    for source, item, value in (
        ("a", "x", "1"), ("b", "x", "1"), ("c", "x", "2"),
        ("a", "y", "3"), ("c", "x", "1"), ("b", "z", "4"),
    ):
        builder.add(source, item, value)
    return builder.build()


def _item_rows_from_truths(dataset, chosen, probabilities) -> ItemRows:
    """``ItemRows.from_truths`` as the parent commit (046a660) had it —
    the per-item Python walk ``from_probabilities`` replaced."""
    item_ids = np.fromiter(sorted(chosen), dtype=np.int64, count=len(chosen))
    truth = np.fromiter(
        (chosen[int(i)] for i in item_ids), dtype=np.int64, count=len(item_ids)
    )
    probability = np.fromiter(
        (float(probabilities[int(v)]) for v in truth),
        dtype=np.float64,
        count=len(truth),
    )
    supporter_lists = [dataset.providers[int(v)] for v in truth]
    offsets = np.zeros(len(item_ids) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in supporter_lists], out=offsets[1:])
    flat = np.fromiter(
        (s for lst in supporter_lists for s in lst),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    return ItemRows(item_ids, truth, probability, offsets, flat)


def _check_table(dataset):
    table = dataset.columns
    assert dataset.columns is table  # built once
    assert (table.n_sources, table.n_values) == (dataset.n_sources, dataset.n_values)
    for name, column in _array_fields(table).items():
        assert column.dtype == np.int64, name

    # the claim stream, in source / dict-insertion order
    assert _csr_rows(table.claim_offsets, table.claim_items) == [
        list(claim) for claim in dataset.claims
    ]
    assert _csr_rows(table.claim_offsets, table.claim_values) == [
        list(claim.values()) for claim in dataset.claims
    ]
    assert table.claim_sources.tolist() == [
        s for s, claim in enumerate(dataset.claims) for _ in claim
    ]
    # value -> providers and item -> providers, ascending like the reference
    assert _csr_rows(table.prov_offsets, table.prov_sources) == dataset.providers
    assert table.prov_value.tolist() == [
        v for v, providers in enumerate(dataset.providers) for _ in providers
    ]
    by_item = [[] for _ in range(dataset.n_items)]
    for source_id, claim in enumerate(dataset.claims):
        for item_id in claim:
            by_item[item_id].append(source_id)
    assert _csr_rows(table.item_prov_offsets, table.item_prov_sources) == by_item
    # the item segments of the value axis
    assert table.value_item.tolist() == dataset.value_item
    segments = [values for values in dataset.item_value_table() if values]
    assert _csr_rows(table.seg_starts, table.item_order) == segments
    assert table.seg_sizes.tolist() == [len(values) for values in segments]
    assert table.seg_items.tolist() == [
        i for i, values in enumerate(dataset.item_value_table()) if values
    ]
    # the multi-provider skeleton
    shared = [v for v, p in enumerate(dataset.providers) if len(p) >= 2]
    assert table.shared_values.tolist() == shared
    assert _csr_rows(table.shared_offsets, table.shared_providers) == [
        dataset.providers[v] for v in shared
    ]
    # what gathers from it
    assert count_shared_items_columnar(dataset) == count_shared_items(dataset)
    assert count_shared_items_columnar(dataset, layout="sparse") == count_shared_items(dataset)


class TestTableEqualsTheWalks:
    @given(world=worlds())
    def test_random_worlds(self, world):
        _check_table(world[0])

    @settings(max_examples=10)
    @given(world=saturated_worlds())
    def test_dense_worlds(self, world):
        _check_table(world[0])

    def test_named_shapes(self):
        _check_table(motivating_example())
        _check_table(DatasetBuilder().build())  # the empty world
        _check_table(_with_orphan_value())
        lonely = DatasetBuilder()
        lonely.add("a", "x", "1")
        lonely.add("b", "x", "2")  # an item shared, no value shared
        _check_table(lonely.build())

    def test_take_csr_matches_python_slicing(self):
        offsets = np.array([0, 2, 2, 5, 6], dtype=np.int64)
        flat = np.arange(10, 16, dtype=np.int64)
        rows = np.array([2, 0, 3, 1, 2], dtype=np.int64)
        got = take_csr(offsets, flat, rows)
        want = [_csr_rows(offsets, flat)[r] for r in rows]
        assert _csr_rows(*got) == want
        empty = take_csr(offsets, flat, rows[:0])
        assert empty[0].tolist() == [0] and len(empty[1]) == 0


class TestTruthsFromTheTable:
    @staticmethod
    def _check(dataset, probabilities):
        chosen = choose_values(dataset, probabilities)
        table = dataset.columns
        truth = choose_values_columnar(table, np.asarray(probabilities))
        assert dict(zip(table.seg_items.tolist(), truth.tolist())) == chosen
        got = ItemRows.from_probabilities(dataset, probabilities)
        want = _item_rows_from_truths(dataset, chosen, probabilities)
        for name, column in vars(want).items():
            other = getattr(got, name)
            assert other.dtype == column.dtype, name
            assert other.tobytes() == column.tobytes(), name

    @given(world=worlds())
    def test_item_rows_equal_the_parent_constructor(self, world):
        dataset, probabilities, _ = world
        self._check(dataset, probabilities)
        self._check(dataset, np.asarray(probabilities))

    @given(world=worlds())
    def test_ties_go_to_the_lowest_value_id(self, world):
        dataset = world[0]
        self._check(dataset, [0.5] * dataset.n_values)
        # -0.0 == 0.0: still a tie, still the lowest id
        self._check(dataset, ([0.0, -0.0] * dataset.n_values)[: dataset.n_values])

    def test_orphan_values_and_the_empty_world(self):
        orphan = _with_orphan_value()
        self._check(orphan, [0.1 * (v + 1) for v in range(orphan.n_values)])
        self._check(DatasetBuilder().build(), [])


class TestNothingWritesThrough:
    def test_every_array_is_read_only(self):
        table = motivating_example().columns
        columns = _array_fields(table)
        assert len(columns) == 17
        for name, column in columns.items():
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0

    @pytest.mark.parametrize("ordering", list(EntryOrdering))
    def test_a_rounds_entries_share_no_memory_with_the_table(self, ordering):
        """The index's ``ColumnarEntries`` is what a round hands to the
        kernels, the shm block and the cluster wire: its arrays are its
        own (fresh, writable gathers), never views of the cache."""
        dataset = motivating_example()
        params = CopyParams(backend="numpy")
        probabilities = [0.5] * dataset.n_values
        index = InvertedIndex.build(
            dataset, probabilities, [0.8] * dataset.n_sources, params, ordering=ordering
        )
        cols = index.columnar_entries()
        partition = cols.take([0, 2])
        for block in (cols, partition):
            for name in ("probs", "main", "offsets", "providers"):
                column = getattr(block, name)
                assert column.flags.writeable, name
                for cached in _array_fields(dataset.columns).values():
                    assert not np.shares_memory(column, cached), name
        # PAIRWISE's view aliases the skeleton instead — and so cannot be
        # written: the table's guard holds through it.
        groups = ColumnarEntries.from_value_groups(dataset, probabilities)
        assert np.shares_memory(groups.providers, dataset.columns.shared_providers)
        with pytest.raises(ValueError, match="read-only"):
            groups.providers[0] = 0
