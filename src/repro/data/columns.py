"""The claims of a :class:`~repro.data.Dataset` as one columnar table.

Everything the NumPy paths need from the claims — the round's index
skeleton, the shared-item counter, PAIRWISE's value groups, the fusion
kernels' vote scatter and the snapshot's provenance — is a gather over
the arrays built here, once per dataset (:attr:`Dataset.columns`).
The claim dicts are flattened with two C-level ``list.extend`` calls
per *source*; every other structure is a stable ``argsort`` or a
``bincount`` of that stream.  The pure-Python walks
(:attr:`Dataset.providers`, :func:`repro.simjoin.count_shared_items`)
stay the reference the tests compare this table against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataset import Dataset


def _offsets(counts) -> np.ndarray:
    """CSR offsets ``[0, c0, c0 + c1, ...]`` of a row-length column."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=out[1:])
    return out


def take_csr(
    offsets: np.ndarray, flat: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the ``rows`` of a CSR ``(offsets, flat)`` into a new CSR.

    Returns fresh ``(offsets, flat)`` arrays holding the selected rows in
    the order given — one vectorized gather, no per-row step.
    """
    counts = offsets[rows + 1] - offsets[rows]
    out = _offsets(counts)
    total = int(out[-1])
    # Flat source slot per kept element: within row r the running arange
    # minus the row's destination start gives 0..counts[r]-1, offset by
    # the row's source start.
    slots = (
        np.repeat(offsets[rows], counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(out[:-1], counts)
    )
    return out, flat[slots]


class ClaimColumns:
    """The static claim structure of a dataset, in columnar layout.

    Everything here depends only on the claims — never on probabilities,
    accuracies or detection results — so one instance (cached as
    :attr:`Dataset.columns`) serves every round of every run over the
    dataset.  All arrays are int64 and **read-only**: the index, the
    shared-item counter, fusion, PAIRWISE and the snapshot publisher
    alias this one table, so nothing may write through.

    Attributes:
        n_sources: number of sources.
        n_values: number of distinct ``(item, value)`` pairs.
        claim_offsets: CSR offsets into the claim stream, per source id,
            shape ``(n_sources + 1,)``.
        claim_sources: source id per claim slot (the scatter key for the
            accuracy update).
        claim_items: claimed item id per claim slot, in claim insertion
            order (``dict`` iteration order in the reference).
        claim_values: claimed value id per claim slot, same order.
        prov_offsets: CSR offsets into the provider stream, per value id,
            shape ``(n_values + 1,)``.
        prov_sources: concatenated provider source ids (ascending within
            each value, matching ``Dataset.providers``).
        prov_value: value id per provider slot (the scatter key for vote
            counting).
        item_prov_offsets: CSR offsets of the item -> provider stream,
            per item id, shape ``(n_items + 1,)``.
        item_prov_sources: concatenated source ids claiming each item,
            ascending within an item.
        value_item: item id per value id.
        item_order: permutation of value ids sorted by item id (stable,
            so values stay ascending within an item — the reference's
            ``item_value_table`` order).
        seg_starts: offsets of each represented item's segment inside
            ``item_order``, shape ``(n_segments + 1,)``.
        seg_sizes: values per segment (``np.diff(seg_starts)``).
        seg_items: item id per segment, ascending, shape
            ``(n_segments,)``.
        shared_values: ids of the values with >= 2 providers, ascending
            — the rows of every inverted index over the dataset.
        shared_offsets: CSR offsets of those values' providers, shape
            ``(len(shared_values) + 1,)``.
        shared_providers: their concatenated provider ids.
    """

    def __init__(self, dataset: "Dataset"):
        self.n_sources = n_sources = dataset.n_sources
        self.n_values = n_values = dataset.n_values
        flat_items: list[int] = []
        flat_values: list[int] = []
        for claim in dataset.claims:
            flat_items.extend(claim)
            flat_values.extend(claim.values())
        self.claim_items = np.asarray(flat_items, dtype=np.int64)
        self.claim_values = np.asarray(flat_values, dtype=np.int64)
        self.claim_offsets = _offsets(dataset.items_per_source)
        self.claim_sources = np.repeat(
            np.arange(n_sources, dtype=np.int64), np.diff(self.claim_offsets)
        )
        # The stream is in source order, so a stable sort by value (or
        # item) leaves each key's providers ascending — exactly
        # ``Dataset.providers``.
        by_value = np.argsort(self.claim_values, kind="stable")
        self.prov_offsets = _offsets(np.bincount(self.claim_values, minlength=n_values))
        self.prov_sources = self.claim_sources[by_value]
        self.prov_value = self.claim_values[by_value]
        by_item = np.argsort(self.claim_items, kind="stable")
        self.item_prov_offsets = _offsets(
            np.bincount(self.claim_items, minlength=dataset.n_items)
        )
        self.item_prov_sources = self.claim_sources[by_item]

        self.value_item = np.asarray(dataset.value_item, dtype=np.int64)
        self.item_order = np.argsort(self.value_item, kind="stable")
        sorted_items = self.value_item[self.item_order]
        if n_values:
            boundaries = np.nonzero(np.diff(sorted_items))[0] + 1
            self.seg_starts = np.concatenate(
                ([0], boundaries, [n_values])
            ).astype(np.int64)
        else:
            self.seg_starts = np.zeros(1, dtype=np.int64)
        self.seg_sizes = np.diff(self.seg_starts)
        self.seg_items = sorted_items[self.seg_starts[:-1]]

        self.shared_values = np.nonzero(np.diff(self.prov_offsets) >= 2)[0]
        self.shared_offsets, self.shared_providers = take_csr(
            self.prov_offsets, self.prov_sources, self.shared_values
        )
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
