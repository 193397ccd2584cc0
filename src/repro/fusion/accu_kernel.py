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

1. **Columnar claims** (:class:`~repro.data.columns.ClaimColumns`,
   ``dataset.columns``): the static claim structure in struct-of-arrays
   layout — a provider CSR per value, a claim CSR per source, and an
   item-sorted value permutation with segment offsets.  The claims never
   change across fusion rounds, so the dataset builds this once and
   every round reuses it.
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

from typing import Sequence

import numpy as np

from ..core.pairspace import (
    PairValueMap,
    decode_pair_keys,
    encode_pair_keys,
    resolve_pair_layout,
)
from ..core.params import CopyParams
from ..core.result import DetectionResult
from ..data.columns import ClaimColumns

#: Largest dense copy-probability matrix (``n_sources ** 2`` floats) the
#: ``"auto"`` layout will allocate for the ACCUCOPY discount gather;
#: beyond it (> ~2k sources) the sparse sorted-key lookup
#: (:func:`sparse_copy_probabilities`) serves the same gather — with a
#: logged warning — keeping memory bounded by the number of *decided*
#: pairs.
DENSE_MATRIX_LIMIT = 1 << 22


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
    cols: ClaimColumns,
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
    cols: ClaimColumns,
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
    cols: ClaimColumns,
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


def choose_values_columnar(cols: ClaimColumns, probabilities: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.fusion.accu.choose_values`: the chosen
    value id per item segment, aligned with ``cols.seg_items``.

    The highest probability of each segment wins; values ascend within a
    segment, so the first maximum is the reference's tie-break (lowest
    value id).
    """
    starts = cols.seg_starts[:-1]
    sorted_probs = np.asarray(probabilities, dtype=np.float64)[cols.item_order]
    best = np.repeat(np.maximum.reduceat(sorted_probs, starts), cols.seg_sizes)
    winners = np.nonzero(sorted_probs == best)[0]
    return cols.item_order[winners[np.searchsorted(winners, starts)]]
