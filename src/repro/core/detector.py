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

import functools
import random
import time
from typing import Sequence

from ..data import Dataset
from .bound import (
    DEFAULT_HYBRID_THRESHOLD,
    detect_bound,
    detect_bound_plus,
    detect_hybrid,
)
from .incremental import incremental_round, prepare_incremental
from .index import EntryOrdering, InvertedIndex
from .index_algo import detect_index
from .pairwise import detect_pairwise
from .params import CopyParams, validate_execution
from .result import DetectionResult

#: Names accepted by :func:`detect` and the CLI.
METHODS = ("pairwise", "index", "bound", "bound+", "hybrid")

#: Methods the parallel engine can partition (everything else is either
#: inherently pairwise or early-terminating over the whole scan order).
PARALLEL_METHODS = ("index", "hybrid")


def _check_round(
    params: CopyParams,
    method: str,
    n_partitions: int,
    executor: str,
    reduce: str,
) -> None:
    """Validate one round's method and partition arguments.

    Raises:
        ValueError: for an unknown method, a partitioned method outside
            :data:`PARALLEL_METHODS`, or anything
            :func:`validate_execution` rejects.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if n_partitions > 1 and method not in PARALLEL_METHODS:
        raise ValueError(
            f"n_partitions > 1 supports methods {PARALLEL_METHODS}, "
            f"not {method!r}"
        )
    validate_execution(params, n_partitions, executor, reduce)


def _stamped(run_round):
    """Stamp ``elapsed_seconds`` on the round ``run_round`` returns."""

    @functools.wraps(run_round)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = run_round(*args, **kwargs)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    return wrapper


def _round_index(world, ordering, rng, shared_items) -> InvertedIndex:
    """One round's index over ``world = (dataset, probabilities,
    accuracies, params)`` — under numpy the columns every kernel reads."""
    return InvertedIndex.build(
        *world, ordering=ordering, rng=rng, shared_items=shared_items
    )


@_stamped
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
    workspace=None,
    n_partitions: int = 1,
    executor: str = "serial",
    reduce: str = "flat",
    cluster=None,
) -> DetectionResult:
    """Run one copy-detection round with the named algorithm.

    The single round dispatcher: the only place a method name, an index
    build and an executor meet.  ``params.backend == "numpy"`` routes
    ``pairwise``/``index`` through the vectorized kernel and the BOUND
    family through the epoch-batched scan
    (:mod:`repro.core.bound_kernel`, bit-identical decisions).

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
        workspace: a :class:`~repro.fusion.FusionWorkspace` for this
            dataset (one built for another dataset is ignored); a
            partitioned round reuses its persistent executors.
        n_partitions: ``> 1`` (methods :data:`PARALLEL_METHODS` only)
            runs the scan through :mod:`repro.parallel` — partitioned,
            map/reduced — instead of sequentially.
        executor: where partitions run (``"serial"``, ``"threads"``,
            ``"processes"``, ``"remote"``); ignored at ``n_partitions=1``.
        reduce: ``"flat"`` or ``"tree"`` merge topology.
        cluster: for ``executor="remote"``: a live ClusterExecutor, a
            worker list, or None (``REPRO_CLUSTER_WORKERS``).

    Returns:
        The round's :class:`DetectionResult`, with ``elapsed_seconds``
        filled in.

    Raises:
        ValueError: for an unknown method or execution argument, or a
            partitioned method outside :data:`PARALLEL_METHODS`.
    """
    _check_round(params, method, n_partitions, executor, reduce)
    world = (dataset, probabilities, accuracies, params)
    if method == "pairwise":
        return detect_pairwise(*world, shared_items=shared_items)
    if workspace is not None and workspace.dataset is not dataset:
        workspace = None
    index = _round_index(world, ordering, rng, shared_items)
    if n_partitions > 1:
        # Resolved through the package at call time: tracing tools wrap
        # these attributes of ``repro.parallel``.
        from ..parallel import detect_hybrid_parallel, detect_index_parallel

        execution = dict(
            n_partitions=n_partitions,
            executor=executor,
            index=index,
            reduce=reduce,
            workspace=workspace,
            cluster=cluster,
        )
        if method == "index":
            return detect_index_parallel(*world, **execution)
        return detect_hybrid_parallel(
            *world, hybrid_threshold=hybrid_threshold, **execution
        )
    if method == "index":
        return detect_index(*world, index=index)
    if method == "bound":
        return detect_bound(*world, index=index)
    if method == "bound+":
        return detect_bound_plus(*world, index=index)
    return detect_hybrid(
        *world, index=index, hybrid_threshold=hybrid_threshold
    ).result


def make_detector(method: str, params: CopyParams, **execution):
    """The per-round detector :func:`repro.fusion.run_fusion` drives.

    ``"none"`` gives ``None`` (copy-oblivious fusion), ``"incremental"``
    an :class:`IncrementalDetector`, any of :data:`METHODS` a
    :class:`SingleRoundDetector`; ``execution`` is forwarded to the
    chosen class's constructor.
    """
    if method == "none":
        return None
    if method == "incremental":
        return IncrementalDetector(params, **execution)
    return SingleRoundDetector(params, method, **execution)


class _WorkspaceMixin:
    """Fusion-workspace plumbing shared by the stateful detectors.

    :func:`repro.fusion.run_fusion` binds its
    :class:`~repro.fusion.FusionWorkspace` for the duration of a fusion
    run (and unbinds it on the way out, exceptions included).  While
    bound, the workspace supplies the shared-item counts and — for the
    parallel methods — the persistent executors (pool, shared-memory
    block, cluster session).
    """

    _workspace = None

    def bind_workspace(self, workspace) -> None:
        """Attach (or, with ``None``, detach) a fusion workspace."""
        self._workspace = workspace

    def _shared_items(self, dataset: Dataset):
        """The bound workspace's shared-item counts (claims are static,
        so one count serves every round); ``None`` — the index build
        counts — outside a fusion run or when the workspace was built
        for another dataset (identity with the object it holds, never
        ``id()``: ids are recycled, and would serve one dataset's counts
        to another)."""
        workspace = self._workspace
        if workspace is not None and workspace.dataset is dataset:
            return workspace.shared_items
        return None


class SingleRoundDetector(_WorkspaceMixin):
    """Stateless per-round detector: re-runs the named method every round.

    Stores one :func:`detect` configuration and forwards it each round;
    with ``n_partitions > 1`` (methods ``"index"`` and ``"hybrid"``
    only) that round runs through the parallel engine.
    """

    def __init__(
        self,
        params: CopyParams,
        method: str = "hybrid",
        ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
        rng: random.Random | None = None,
        hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
        n_partitions: int = 1,
        executor: str = "serial",
        reduce: str = "flat",
        cluster=None,
    ):
        _check_round(params, method, n_partitions, executor, reduce)
        self.params = params
        self.method = method
        self.ordering = ordering
        self.rng = rng
        self.hybrid_threshold = hybrid_threshold
        self.n_partitions = n_partitions
        self.executor = executor
        self.reduce = reduce
        #: for ``executor="remote"``: a live ClusterExecutor, a worker
        #: list, or None (the REPRO_CLUSTER_WORKERS environment variable).
        self.cluster = cluster

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
            workspace=self._workspace,
            n_partitions=self.n_partitions,
            executor=self.executor,
            reduce=self.reduce,
            cluster=self.cluster,
        )


class IncrementalDetector(_WorkspaceMixin):
    """Stateful detector implementing the paper's INCREMENTAL schedule.

    Rounds 1 and 2 run HYBRID from scratch (round 2 with bookkeeping —
    the preparation round); rounds 3+ run :func:`incremental_round`.

    Attributes:
        state: the cross-round state (available after the preparation
            round): an :class:`IncrementalState` under the python
            backend, a
            :class:`~repro.core.incremental_kernel.ColumnarIncrementalState`
            under numpy.  Both expose ``index``, ``records()`` and
            per-round :class:`RoundStats` via ``history`` (Table VIII).
    """

    def __init__(
        self,
        params: CopyParams,
        ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
        hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
        rho_value: float = 1.0,
        rho_accuracy: float = 0.2,
        prepare_round: int = 2,
    ):
        self.params = params
        self.ordering = ordering
        self.hybrid_threshold = hybrid_threshold
        self.rho_value = rho_value
        self.rho_accuracy = rho_accuracy
        self.prepare_round = prepare_round
        self.state = None

    @_stamped
    def run_round(
        self,
        round_no: int,
        dataset: Dataset,
        probabilities: Sequence[float],
        accuracies: Sequence[float],
    ) -> DetectionResult:
        """Detect copying for one fusion round (``round_no`` is 1-based)."""
        if round_no > self.prepare_round and self.state is not None:
            return incremental_round(
                self.state,
                probabilities,
                accuracies,
                self.params,
                rho_value=self.rho_value,
                rho_accuracy=self.rho_accuracy,
            )
        world = (dataset, probabilities, accuracies, self.params)
        shared = self._shared_items(dataset)
        if round_no < self.prepare_round:
            return detect(
                *world,
                method="hybrid",
                ordering=self.ordering,
                hybrid_threshold=self.hybrid_threshold,
                shared_items=shared,
                workspace=self._workspace,
            )
        result, self.state = prepare_incremental(
            *world,
            index=_round_index(world, self.ordering, None, shared),
            hybrid_threshold=self.hybrid_threshold,
        )
        return result
