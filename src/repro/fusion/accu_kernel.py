"""NumPy-vectorized ACCU / ACCUCOPY truth finding.

The iterative fusion loop (:mod:`repro.fusion.pipeline`) runs the
Dong-Berti-Equille-Srivastava truth-finding update once per round:
compute vote counts, soften them into value probabilities, re-estimate
source accuracies.  The pure-Python implementation in
:mod:`repro.fusion.accu` walks the claims with nested loops — for
ACCUCOPY, its :func:`~repro.fusion.accu.independence_weights` alone runs
a Python inner loop per (provider, higher-ranked provider) incidence and
a dict lookup into the detection result for each — which made the fusion
layer the dominant un-vectorized cost once the detection scans were
vectorized (PRs 1-3).  This module performs the same computation
columnarly:

1. **Columnar claims** (:class:`FusionColumns`): the static claim
   structure in struct-of-arrays layout — a provider CSR per value, a
   claim CSR per source, and an item-sorted value permutation with
   segment offsets.  The claims never change across fusion rounds, so
   the workspace builds this once and every round reuses it.
2. **Vote counts**: accuracy log-odds ``A'(S) = ln(n A / (1-A))`` come
   out of one vectorized expression over the source axis; the per-value
   sums are one ``np.bincount`` scatter-add over the flat provider
   stream (which accumulates in stream order, i.e. in the reference's
   per-value provider order — structural vote-count ties are therefore
   preserved exactly, so tie-broken truth choices match the reference).
3. **ACCUCOPY discounts** (:func:`independence_weight_stream`): values
   are grouped by provider count ``k``, each group's providers are
   rank-sorted by accuracy with one stable ``argsort``, and every
   provider's independence weight
   ``I(S) = prod_{S' above S} (1 - s Pr(S -> S'))`` is a masked
   row-product over a ``k x k`` copy-probability gather.  The gather's
   backing store is picked by ``CopyParams.pair_layout``: dense worlds
   densify the detection result into an ``n_sources x n_sources``
   matrix, while worlds whose ``n_sources ** 2`` exceeds
   :data:`DENSE_MATRIX_LIMIT` (where the dense matrix would cost
   gigabytes) keep only the *decided* pairs in a sorted-key
   :class:`~repro.core.pairspace.PairValueMap` and gather with
   ``np.searchsorted`` — identical floats, memory bounded by the
   decision count.  (The former behaviour — silently falling back to
   the reference per-value weight loop — is retired; the switch is
   logged.)
4. **Per-item softmax**: vote counts are permuted into the item-sorted
   layout and the max-shift, exponential sums and normalisation run as
   segment reductions (``np.maximum.reduceat`` / ``np.add.reduceat``)
   over the per-item segments.
5. **Accuracy update**: the mean claimed-value probability per source is
   one gather plus one ``np.bincount`` over the claim CSR.

The Python implementation remains the reference (and the default,
``CopyParams(backend="python")``); the vectorized path reorders
floating-point reductions, so the property tests assert agreement to
1e-9 rather than bit identity — exactly the contract of the detection
kernels of PRs 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.pairspace import (
    PairValueMap,
    decode_pair_keys,
    encode_pair_keys,
    resolve_pair_layout,
)
from ..core.params import CopyParams
from ..core.result import DetectionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data import Dataset

#: Largest dense copy-probability matrix (``n_sources ** 2`` floats) the
#: ``"auto"`` layout will allocate for the ACCUCOPY discount gather;
#: beyond it (> ~2k sources) the sparse sorted-key lookup
#: (:func:`sparse_copy_probabilities`) serves the same gather — with a
#: logged warning — keeping memory bounded by the number of *decided*
#: pairs.
DENSE_MATRIX_LIMIT = 1 << 22


@dataclass
class FusionColumns:
    """The static claim structure of a dataset, in columnar layout.

    Everything here depends only on the claims — never on probabilities,
    accuracies or detection results — so one instance serves every round
    of a fusion run (and is what :class:`~repro.fusion.FusionWorkspace`
    caches).

    Attributes:
        n_sources: number of sources.
        n_values: number of distinct ``(item, value)`` pairs.
        prov_offsets: CSR offsets into the provider stream, per value id,
            shape ``(n_values + 1,)``.
        prov_sources: concatenated provider source ids (sorted within
            each value, matching ``Dataset.providers``).
        prov_value: value id per provider slot (``np.repeat`` of the
            value axis — the scatter key for vote counting).
        claim_offsets: CSR offsets into the claim stream, per source id,
            shape ``(n_sources + 1,)``.
        claim_values: concatenated claimed value ids per source, in
            claim insertion order (matching ``dict.values()`` iteration
            in the reference).
        claim_sources: source id per claim slot (the scatter key for the
            accuracy update).
        item_order: permutation of value ids sorted by item id (stable,
            so values stay ascending within an item — the reference's
            ``item_value_table`` order).
        seg_starts: offsets of each represented item's segment inside
            ``item_order``, shape ``(n_segments + 1,)``.
        seg_sizes: values per segment (``np.diff(seg_starts)``).
        seg_items: item id per segment, shape ``(n_segments,)`` — the
            key stream for per-item diagnostics (the DS conflict dict).
    """

    n_sources: int
    n_values: int
    prov_offsets: np.ndarray
    prov_sources: np.ndarray
    prov_value: np.ndarray
    claim_offsets: np.ndarray
    claim_values: np.ndarray
    claim_sources: np.ndarray
    item_order: np.ndarray
    seg_starts: np.ndarray
    seg_sizes: np.ndarray
    seg_items: np.ndarray

    @classmethod
    def from_dataset(cls, dataset: "Dataset") -> "FusionColumns":
        """Columnarize the claims of a dataset (one pass, done once)."""
        n_values = dataset.n_values
        n_sources = dataset.n_sources

        providers = dataset.providers
        prov_counts = np.fromiter(
            (len(p) for p in providers), dtype=np.int64, count=n_values
        )
        prov_offsets = np.zeros(n_values + 1, dtype=np.int64)
        np.cumsum(prov_counts, out=prov_offsets[1:])
        flat_sources: list[int] = []
        for sources in providers:
            flat_sources.extend(sources)
        prov_sources = np.asarray(flat_sources, dtype=np.int64)
        prov_value = np.repeat(np.arange(n_values, dtype=np.int64), prov_counts)

        claim_counts = np.fromiter(
            (len(c) for c in dataset.claims), dtype=np.int64, count=n_sources
        )
        claim_offsets = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(claim_counts, out=claim_offsets[1:])
        flat_values: list[int] = []
        for claim in dataset.claims:
            flat_values.extend(claim.values())
        claim_values = np.asarray(flat_values, dtype=np.int64)
        claim_sources = np.repeat(
            np.arange(n_sources, dtype=np.int64), claim_counts
        )

        value_item = np.asarray(dataset.value_item, dtype=np.int64)
        item_order = np.argsort(value_item, kind="stable")
        sorted_items = value_item[item_order]
        if n_values:
            boundaries = np.nonzero(np.diff(sorted_items))[0] + 1
            seg_starts = np.concatenate(
                ([0], boundaries, [n_values])
            ).astype(np.int64)
        else:
            seg_starts = np.zeros(1, dtype=np.int64)
        return cls(
            n_sources=n_sources,
            n_values=n_values,
            prov_offsets=prov_offsets,
            prov_sources=prov_sources,
            prov_value=prov_value,
            claim_offsets=claim_offsets,
            claim_values=claim_values,
            claim_sources=claim_sources,
            item_order=item_order,
            seg_starts=seg_starts,
            seg_sizes=np.diff(seg_starts),
            seg_items=sorted_items[seg_starts[:-1]],
        )


def accuracy_scores(
    accuracies: Sequence[float] | np.ndarray, params: CopyParams
) -> np.ndarray:
    """Vectorized ``A'(S) = ln(n A / (1 - A))`` with the standard clamp."""
    a = np.clip(
        np.asarray(accuracies, dtype=np.float64),
        params.accuracy_clamp,
        1.0 - params.accuracy_clamp,
    )
    return np.log(params.n * a / (1.0 - a))


def copy_probability_matrix(
    detection: DetectionResult, n_sources: int
) -> np.ndarray:
    """Densify a detection result into directed copy probabilities.

    ``matrix[copier, original] = Pr(copier -> original | Phi)``; pairs
    never opened stay 0 (independent), matching
    :meth:`~repro.core.result.DetectionResult.copy_probability`.
    """
    cols = detection.columns()
    s1, s2 = decode_pair_keys(cols.keys)
    matrix = np.zeros((n_sources, n_sources))
    matrix[s1, s2] = cols.forward
    matrix[s2, s1] = cols.backward
    return matrix


def sparse_copy_probabilities(detection: DetectionResult) -> PairValueMap:
    """The sparse counterpart of :func:`copy_probability_matrix`.

    Stores only the decided pairs (two directed entries each); lookups
    of never-opened pairs — and the diagonal — read 0, exactly like the
    dense matrix's untouched zeros.
    """
    cols = detection.columns()
    s1, s2 = decode_pair_keys(cols.keys)
    keys = np.concatenate([cols.keys, encode_pair_keys(s2, s1)])
    order = np.argsort(keys, kind="stable")
    return PairValueMap(
        keys[order], np.concatenate([cols.forward, cols.backward])[order]
    )


def independence_weight_stream(
    cols: FusionColumns,
    accuracies: np.ndarray,
    detection: DetectionResult,
    params: CopyParams,
) -> np.ndarray:
    """ACCUCOPY's per-provider discount, over the whole provider stream.

    Returns weights aligned with ``cols.prov_sources``: single-provider
    values keep weight 1 (the reference never discounts them), and each
    provider of a multi-provider value keeps
    ``prod_{S' ranked above} (1 - s * Pr(S -> S' | Phi))`` with ranking
    by descending accuracy, ties broken by provider position — the same
    stable order as the reference's ``sorted(..., key=-accuracy)``.

    Values are grouped by provider count ``k`` so the ranking is one
    stable ``argsort`` per group and the triangular product is one masked
    ``prod`` over a ``(group, k, k)`` copy-probability gather.  The
    gather reads either the dense matrix or the sparse decided-pair
    lookup, per ``params.pair_layout`` (``"auto"`` goes sparse — with a
    logged warning — when ``n_sources ** 2 > DENSE_MATRIX_LIMIT``, where
    the dense matrix would not fit); unobserved pairs read 0 either way,
    so the factors are identical floats.
    """
    weights = np.ones(len(cols.prov_sources))
    counts = np.diff(cols.prov_offsets)
    layout = resolve_pair_layout(
        params.pair_layout,
        cols.n_sources,
        DENSE_MATRIX_LIMIT,
        "accu_kernel.independence_weight_stream",
    )
    if layout == "dense":
        matrix = copy_probability_matrix(detection, cols.n_sources)
    else:
        probs_map = sparse_copy_probabilities(detection)
    s = params.s
    for k in np.unique(counts):
        if k < 2:
            continue
        k = int(k)
        rows = np.nonzero(counts == k)[0]
        slots = cols.prov_offsets[rows][:, None] + np.arange(k)
        provs = cols.prov_sources[slots]  # (R, k)
        order = np.argsort(-accuracies[provs], axis=1, kind="stable")
        ranked = np.take_along_axis(provs, order, axis=1)
        # factors[r, i, j] = 1 - s * Pr(ranked_i -> ranked_j) for j < i;
        # everything on or above the diagonal multiplies as 1.
        if layout == "dense":
            gathered = matrix[ranked[:, :, None], ranked[:, None, :]]
        else:
            gathered = probs_map.gather(ranked[:, :, None], ranked[:, None, :])
        factors = 1.0 - s * gathered
        below = np.tril(np.ones((k, k), dtype=bool), -1)
        ranked_weights = np.where(below[None, :, :], factors, 1.0).prod(axis=2)
        unranked = np.empty_like(ranked_weights)
        np.put_along_axis(unranked, order, ranked_weights, axis=1)
        weights[slots] = unranked
    return weights


def value_probabilities_columnar(
    cols: FusionColumns,
    accuracies: Sequence[float] | np.ndarray,
    params: CopyParams,
    detection: DetectionResult | None = None,
) -> np.ndarray:
    """Vectorized :func:`repro.fusion.accu.value_probabilities`.

    Args:
        cols: the columnar claim structure.
        accuracies: current ``A(S)`` per source.
        params: model parameters.
        detection: a detection result to discount copied votes with
            (ACCUCOPY); plain ACCU when omitted.

    Returns:
        ``P(D.v)`` per value id, agreeing with the reference to within
        float re-association error (property-tested at 1e-9).
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    scores = accuracy_scores(acc, params)
    votes = scores[cols.prov_sources]
    if detection is not None:
        votes = votes * independence_weight_stream(
            cols, acc, detection, params
        )
    vote_counts = np.bincount(
        cols.prov_value, weights=votes, minlength=cols.n_values
    )

    probabilities = np.zeros(cols.n_values)
    if cols.n_values == 0:
        return probabilities
    sorted_counts = vote_counts[cols.item_order]
    starts = cols.seg_starts[:-1]
    # Unobserved domain values: the item's domain holds the true value
    # plus n false ones; each unobserved value votes e^0 = 1.
    n_unobserved = np.maximum(params.n + 1 - cols.seg_sizes, 0)
    shift = np.maximum(np.maximum.reduceat(sorted_counts, starts), 0.0)
    exps = np.exp(sorted_counts - np.repeat(shift, cols.seg_sizes))
    denominator = n_unobserved * np.exp(-shift) + np.add.reduceat(exps, starts)
    probabilities[cols.item_order] = exps / np.repeat(
        denominator, cols.seg_sizes
    )
    return probabilities


def update_accuracies_columnar(
    cols: FusionColumns,
    probabilities: np.ndarray,
    params: CopyParams,
) -> np.ndarray:
    """Vectorized :func:`repro.fusion.accu.update_accuracies`.

    Sources with no claims keep a neutral accuracy of 0.5; results are
    clamped into the model's valid range.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    sums = np.bincount(
        cols.claim_sources,
        weights=probabilities[cols.claim_values],
        minlength=cols.n_sources,
    )
    counts = np.diff(cols.claim_offsets)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.5)
    return np.clip(means, params.accuracy_clamp, 1.0 - params.accuracy_clamp)
