"""Detector dispatch: one entry point for every algorithm in the paper.

Two call styles are provided:

* :func:`detect` — run a single detection round with a named method
  (``"pairwise"``, ``"index"``, ``"bound"``, ``"bound+"``, ``"hybrid"``).
* :class:`SingleRoundDetector` / :class:`IncrementalDetector` — stateful
  objects with a uniform per-round interface, which is what the iterative
  fusion loop (:mod:`repro.fusion`) drives.  ``IncrementalDetector``
  implements the paper's INCREMENTAL schedule: HYBRID from scratch in
  rounds 1 and 2 (round 2 doubles as the preparation round), incremental
  updates from round 3 on (Section VI: "applying INCREMENTAL in the second
  round would not save much").
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Sequence

from ..data import Dataset
from .bound import (
    DEFAULT_HYBRID_THRESHOLD,
    detect_bound,
    detect_bound_plus,
    detect_hybrid,
)
from .incremental import (
    IncrementalState,
    incremental_round,
    prepare_incremental,
)
from .index import EntryOrdering
from .index_algo import detect_index
from .pairwise import detect_pairwise
from .params import CopyParams, validate_execution
from .result import DetectionResult

#: Names accepted by :func:`detect` and the CLI.
METHODS = ("pairwise", "index", "bound", "bound+", "hybrid")

#: Methods the parallel engine can partition (everything else is either
#: inherently pairwise or early-terminating over the whole scan order).
PARALLEL_METHODS = ("index", "hybrid")


def _cached_shared_items(
    cache: tuple[Dataset, dict] | None,
    dataset: Dataset,
    params: CopyParams,
) -> tuple[Dataset, dict]:
    """Shared-item counts, computed once per dataset (claims are static).

    The cache is keyed by the dataset object itself (a strong reference),
    not ``id(dataset)``: ids are recycled after garbage collection, so an
    id-keyed cache can serve one dataset's counts to another.
    """
    if cache is not None and cache[0] is dataset:
        return cache
    if params.backend == "numpy":
        from .kernel import count_shared_items_columnar as count
    else:
        from ..simjoin import count_shared_items as count

    return (dataset, count(dataset))


def detect(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    method: str = "hybrid",
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    rng: random.Random | None = None,
    hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
    shared_items=None,
    backend: str | None = None,
    epoch_size: int | None = None,
    workspace=None,
    pair_layout: str | None = None,
) -> DetectionResult:
    """Run one copy-detection round with the named algorithm.

    Args:
        dataset: the claims.
        probabilities: ``P(D.v)`` per value id.
        accuracies: ``A(S)`` per source id.
        params: model parameters.
        method: one of :data:`METHODS`.
        ordering: index entry ordering (ignored by ``pairwise``).
        rng: random generator for ``EntryOrdering.RANDOM``.
        hybrid_threshold: HYBRID's shared-item cutoff.
        shared_items: precomputed ``l(S1, S2)`` counts to reuse across
            rounds (the claims are static; see
            :meth:`InvertedIndex.build`).
        backend: overrides ``params.backend`` (``"python"``/``"numpy"``)
            for this call.  ``"numpy"`` routes ``pairwise``/``index``
            through the vectorized kernel and the BOUND family through
            the epoch-batched scan (:mod:`repro.core.bound_kernel`,
            bit-identical decisions).
        epoch_size: entries per epoch for the numpy BOUND scans (``None``
            picks the default; exhaustive methods ignore it).
        workspace: a :class:`~repro.fusion.FusionWorkspace`; under the
            numpy backend the round's columnar entries are assembled
            from its frozen provider skeleton (one vectorized gather)
            instead of re-columnarizing the index with Python loops.
        pair_layout: overrides ``params.pair_layout``
            (``"auto"``/``"dense"``/``"sparse"``) for this call — the
            pair-state layout of the numpy kernels (see
            :mod:`repro.core.pairspace`).

    Returns:
        The round's :class:`DetectionResult`, with ``elapsed_seconds``
        filled in.

    Raises:
        ValueError: for an unknown method name.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if backend is not None and backend != params.backend:
        params = replace(params, backend=backend)
    if pair_layout is not None and pair_layout != params.pair_layout:
        params = replace(params, pair_layout=pair_layout)
    start = time.perf_counter()
    if method == "pairwise":
        result = detect_pairwise(
            dataset, probabilities, accuracies, params, shared_items=shared_items
        )
    else:
        from .index import InvertedIndex

        index = InvertedIndex.build(
            dataset,
            probabilities,
            accuracies,
            params,
            ordering=ordering,
            rng=rng,
            shared_items=shared_items,
        )
        if (
            workspace is not None
            and workspace.dataset is dataset
            and params.backend == "numpy"
        ):
            index.set_columnar_entries(workspace.columnar_for_index(index))
        if method == "index":
            result = detect_index(
                dataset, probabilities, accuracies, params, index=index
            )
        elif method == "bound":
            result = detect_bound(
                dataset,
                probabilities,
                accuracies,
                params,
                index=index,
                epoch_size=epoch_size,
            )
        elif method == "bound+":
            result = detect_bound_plus(
                dataset,
                probabilities,
                accuracies,
                params,
                index=index,
                epoch_size=epoch_size,
            )
        else:  # hybrid
            result = detect_hybrid(
                dataset,
                probabilities,
                accuracies,
                params,
                index=index,
                hybrid_threshold=hybrid_threshold,
                epoch_size=epoch_size,
            ).result
    result.elapsed_seconds = time.perf_counter() - start
    return result


class _WorkspaceMixin:
    """Fusion-workspace plumbing shared by the stateful detectors.

    :func:`repro.fusion.run_fusion` binds its
    :class:`~repro.fusion.FusionWorkspace` for the duration of a fusion
    run (and unbinds it on the way out, exceptions included).  While
    bound, the workspace supplies the shared-item counts, the frozen
    columnar entry skeleton and — for the parallel methods — the
    persistent executors (pool, shared-memory block, cluster session).
    """

    _workspace = None

    def bind_workspace(self, workspace) -> None:
        """Attach (or, with ``None``, detach) a fusion workspace."""
        self._workspace = workspace

    def _shared_items(self, dataset: Dataset):
        """Per-dataset shared-item counts (see :func:`_cached_shared_items`)."""
        workspace = self._workspace
        if workspace is not None and workspace.dataset is dataset:
            return workspace.shared_items
        self._shared_items_cache = _cached_shared_items(
            self._shared_items_cache, dataset, self.params
        )
        return self._shared_items_cache[1]


class SingleRoundDetector(_WorkspaceMixin):
    """Stateless per-round detector: re-runs the named method every round.

    With ``n_partitions > 1`` (methods ``"index"`` and ``"hybrid"``
    only) each round's scan runs through the parallel engine —
    partitioned, optionally on a thread/process pool, with the chosen
    reduce topology — instead of the sequential dispatch.
    """

    def __init__(
        self,
        params: CopyParams,
        method: str = "hybrid",
        ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
        rng: random.Random | None = None,
        hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
        backend: str | None = None,
        epoch_size: int | None = None,
        n_partitions: int = 1,
        executor: str = "serial",
        reduce: str = "flat",
        partition_by: str = "entries",
        pair_layout: str | None = None,
        cluster=None,
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if backend is not None and backend != params.backend:
            params = replace(params, backend=backend)
        if pair_layout is not None and pair_layout != params.pair_layout:
            params = replace(params, pair_layout=pair_layout)
        if n_partitions < 1:
            raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
        if n_partitions > 1 and method not in PARALLEL_METHODS:
            raise ValueError(
                f"n_partitions > 1 supports methods {PARALLEL_METHODS}, "
                f"not {method!r}"
            )
        validate_execution(params, executor, reduce, partition_by)
        self.params = params
        self.method = method
        self.ordering = ordering
        self.rng = rng
        self.hybrid_threshold = hybrid_threshold
        self.epoch_size = epoch_size
        self.n_partitions = n_partitions
        self.executor = executor
        self.reduce = reduce
        self.partition_by = partition_by
        #: for ``executor="remote"``: a live ClusterExecutor, a worker
        #: list, or None (the REPRO_CLUSTER_WORKERS environment variable).
        self.cluster = cluster
        self._shared_items_cache: tuple[Dataset, dict] | None = None

    @property
    def wants_workspace(self) -> bool:
        """Whether a fusion workspace would pay off for this detector."""
        return (
            self.params.backend == "numpy"
            or self.n_partitions > 1
            or self.executor != "serial"
        )

    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:
        """Detect copying for one fusion round (``round_no`` is 1-based)."""
        # PAIRWISE's Python reference never consults the counts; the
        # numpy backend uses them for the different-value penalty.
        shared = (
            None
            if self.method == "pairwise" and self.params.backend == "python"
            else self._shared_items(dataset)
        )
        if self.n_partitions > 1:
            return self._run_parallel_round(
                dataset, probabilities, accuracies, shared
            )
        workspace = self._workspace
        return detect(
            dataset,
            probabilities,
            accuracies,
            self.params,
            method=self.method,
            ordering=self.ordering,
            rng=self.rng,
            hybrid_threshold=self.hybrid_threshold,
            shared_items=shared,
            epoch_size=self.epoch_size,
            workspace=(
                workspace
                if workspace is not None and workspace.dataset is dataset
                else None
            ),
        )

    def _run_parallel_round(
        self,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
        shared,
    ) -> DetectionResult:
        """One round through the partitioned map/reduce engine."""
        from ..parallel import detect_hybrid_parallel, detect_index_parallel
        from .index import InvertedIndex

        start = time.perf_counter()
        index = InvertedIndex.build(
            dataset,
            probabilities,
            accuracies,
            self.params,
            ordering=self.ordering,
            rng=self.rng,
            shared_items=shared,
        )
        workspace = self._workspace
        if workspace is not None and workspace.dataset is not dataset:
            workspace = None  # bound for another dataset: ignore, like _shared_items
        if workspace is not None and self.params.backend == "numpy":
            index.set_columnar_entries(workspace.columnar_for_index(index))
        if self.method == "index":
            result = detect_index_parallel(
                dataset,
                probabilities,
                accuracies,
                self.params,
                n_partitions=self.n_partitions,
                strategy="work" if self.partition_by == "work" else "stride",
                executor=self.executor,
                index=index,
                reduce=self.reduce,
                workspace=workspace,
                cluster=self.cluster,
            )
        else:  # hybrid
            result = detect_hybrid_parallel(
                dataset,
                probabilities,
                accuracies,
                self.params,
                n_partitions=self.n_partitions,
                executor=self.executor,
                index=index,
                hybrid_threshold=self.hybrid_threshold,
                epoch_size=self.epoch_size,
                reduce=self.reduce,
                partition_by=self.partition_by,
                workspace=workspace,
                cluster=self.cluster,
            )
        result.elapsed_seconds = time.perf_counter() - start
        return result


class IncrementalDetector(_WorkspaceMixin):
    """Stateful detector implementing the paper's INCREMENTAL schedule.

    Rounds 1 and 2 run HYBRID from scratch (round 2 with bookkeeping —
    the preparation round); rounds 3+ run :func:`incremental_round`.

    Attributes:
        state: the cross-round :class:`IncrementalState` (available after
            round 2; exposes per-round :class:`RoundStats` via
            ``state.history`` for Table VIII).
    """

    def __init__(
        self,
        params: CopyParams,
        ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
        hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
        rho_value: float = 1.0,
        rho_accuracy: float = 0.2,
        prepare_round: int = 2,
        backend: str | None = None,
        epoch_size: int | None = None,
        pair_layout: str | None = None,
    ):
        if backend is not None and backend != params.backend:
            # Routes the from-scratch HYBRID rounds (1, 2 and the
            # preparation round's bookkeeping) through the epoch-batched
            # numpy scan; the bookkeeping it hands to incremental_round
            # is bit-identical to the Python reference's.
            params = replace(params, backend=backend)
        if pair_layout is not None and pair_layout != params.pair_layout:
            params = replace(params, pair_layout=pair_layout)
        self.params = params
        self.ordering = ordering
        self.hybrid_threshold = hybrid_threshold
        self.epoch_size = epoch_size
        self.rho_value = rho_value
        self.rho_accuracy = rho_accuracy
        self.prepare_round = prepare_round
        self.state: IncrementalState | None = None
        self._shared_items_cache: tuple[Dataset, dict] | None = None

    @property
    def wants_workspace(self) -> bool:
        """Whether a fusion workspace would pay off for this detector."""
        return self.params.backend == "numpy"

    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:
        """Detect copying for one fusion round (``round_no`` is 1-based)."""
        start = time.perf_counter()
        if round_no < self.prepare_round:
            result = detect_hybrid(
                dataset,
                probabilities,
                accuracies,
                self.params,
                ordering=self.ordering,
                hybrid_threshold=self.hybrid_threshold,
                shared_items_hint=self._shared_items(dataset),
                epoch_size=self.epoch_size,
            ).result
        elif round_no == self.prepare_round or self.state is None:
            result, self.state = prepare_incremental(
                dataset,
                probabilities,
                accuracies,
                self.params,
                ordering=self.ordering,
                hybrid_threshold=self.hybrid_threshold,
                shared_items_hint=self._shared_items(dataset),
                epoch_size=self.epoch_size,
            )
        else:
            result = incremental_round(
                self.state,
                probabilities,
                accuracies,
                self.params,
                rho_value=self.rho_value,
                rho_accuracy=self.rho_accuracy,
            )
        result.elapsed_seconds = time.perf_counter() - start
        return result
