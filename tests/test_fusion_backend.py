"""The columnar fusion backend: ACCU/ACCUCOPY kernel parity, the
round-persistent FusionWorkspace, and executor lifecycle hygiene."""

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from repro.conformance import CaseConfig, run_case, world_from_problem
from repro.core import (
    DEFAULT_HYBRID_THRESHOLD,
    CopyParams,
    IncrementalDetector,
    InvertedIndex,
    SingleRoundDetector,
    detect_pairwise,
    scan_with_bounds,
)
from repro.core.kernel import ColumnarEntries
from repro.data import DatasetBuilder, motivating_example
from repro.fusion import FusionConfig, run_fusion, update_accuracies, value_probabilities
from repro.fusion.accu_kernel import (
    copy_probability_matrix,
    independence_weight_stream,
    update_accuracies_columnar,
    value_probabilities_columnar,
)
from repro.fusion.workspace import FusionWorkspace
from repro.synth import book_cs
from tests.strategies import worlds

TOL = 1e-9

#: Pins the round count: tolerance 0 never converges, so every run does
#: exactly ``max_rounds`` rounds — the >= 5-round multi-round contract.
FIVE_ROUNDS = FusionConfig(max_rounds=5, min_rounds=5, tolerance=0.0)


def _drift(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


# ----------------------------------------------------------------------
# Kernel-level parity: one update at a time
# ----------------------------------------------------------------------
class TestAccuKernelParity:
    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_value_probabilities_accu(self, world):
        dataset, _, accs = world
        params = CopyParams()
        ref = value_probabilities(dataset, accs, params)
        vec = value_probabilities_columnar(
            dataset.columns, accs, params
        )
        assert _drift(ref, vec) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_value_probabilities_accucopy(self, world):
        """ACCUCOPY: the rank-sorted discount products match the reference."""
        dataset, probs, accs = world
        params = CopyParams()
        detection = detect_pairwise(dataset, probs, accs, params)
        ref = value_probabilities(dataset, accs, params, detection=detection)
        vec = value_probabilities_columnar(
            dataset.columns, accs, params, detection=detection
        )
        assert _drift(ref, vec) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_update_accuracies(self, world):
        dataset, probs, _ = world
        params = CopyParams()
        ref = update_accuracies(dataset, probs, params)
        vec = update_accuracies_columnar(
            dataset.columns, np.asarray(probs), params
        )
        assert _drift(ref, vec) <= TOL

    def test_empty_source_keeps_neutral_accuracy(self):
        b = DatasetBuilder()
        b.ensure_source("empty")
        b.add("s", "D", "v")
        ds = b.build()
        params = CopyParams()
        vec = update_accuracies_columnar(
            ds.columns, np.asarray([0.7]), params
        )
        assert vec[0] == 0.5

    def test_copy_probability_matrix_matches_lookups(self, params):
        ds = motivating_example()
        accs = [0.8] * ds.n_sources
        probs = value_probabilities(ds, accs, params)
        detection = detect_pairwise(ds, probs, accs, params)
        matrix = copy_probability_matrix(detection, ds.n_sources)
        for copier in range(ds.n_sources):
            for original in range(ds.n_sources):
                if copier == original:
                    assert matrix[copier, original] == 0.0
                else:
                    assert matrix[copier, original] == detection.copy_probability(
                        copier, original
                    )

    def test_huge_source_fallback_matches_dense_path(self, monkeypatch, params):
        """Beyond DENSE_MATRIX_LIMIT the sparse decided-pair gather
        takes over (identical floats, no dense matrix)."""
        ds = motivating_example()
        accs = [0.35 + (i % 7) * 0.09 for i in range(ds.n_sources)]
        probs = value_probabilities(ds, accs, params)
        detection = detect_pairwise(ds, probs, accs, params)
        cols = ds.columns
        dense = independence_weight_stream(
            cols, np.asarray(accs, dtype=np.float64), detection, params
        )
        import repro.fusion.accu_kernel as kernel_module

        monkeypatch.setattr(kernel_module, "DENSE_MATRIX_LIMIT", 1)
        fallback = independence_weight_stream(
            cols, np.asarray(accs, dtype=np.float64), detection, params
        )
        np.testing.assert_allclose(fallback, dense, rtol=0, atol=TOL)


# ----------------------------------------------------------------------
# Multi-round run_fusion parity (the acceptance contract)
# ----------------------------------------------------------------------
def _detector_for(method: str, params: CopyParams):
    if method == "none":
        return None
    if method == "incremental":
        return IncrementalDetector(params)
    return SingleRoundDetector(params, method=method)


class TestFusionBackendParity:
    @pytest.mark.parametrize(
        "method", ["none", "pairwise", "index", "bound", "bound+", "hybrid", "incremental"]
    )
    @settings(max_examples=12, deadline=None)
    @given(world=worlds(max_sources=6, max_items=10))
    def test_five_round_parity(self, method, world):
        """>= 5 rounds of ACCU (method 'none') / ACCUCOPY under every
        detection method, verified in lockstep at every step.

        This test used to diff two *complete* ``run_fusion`` runs and
        assert identical truths plus <= 1e-9 end-state drift — a latent
        over-assertion that reproduces on the pristine PR-4 code: on a
        tie-heavy world (all competing scores structurally equal, e.g.
        two-value items with menu accuracies) the numpy backend's
        re-association can leave two candidate truths *exactly* tied
        where the reference separates them by one ulp, flipping the
        argmax — after which the ACCUCOPY trajectories fork discretely
        and end-state drift is unbounded (a 4-source/6-item hypothesis
        example flipped an item truth with the vectors still 1e-16
        apart).  The real guarantee is *per-step* conformance on
        bit-identical inputs — detection under the single-round contract
        (bit-exact for the bound family, INCREMENTAL's bookkeeping
        rounds included), ACCU/ACCUCOPY updates at <= 1e-9, tie-aware
        fused truths — which is exactly what the conformance engine's
        lockstep fusion mode checks."""
        dataset, probs, accs = world
        case = run_case(
            world_from_problem(dataset, probs, accs, kind="hypothesis"),
            CaseConfig("fusion", method, rounds=5),
        )
        assert case.divergences == []

    def test_five_round_end_to_end_on_separated_world(self):
        """End-to-end run_fusion parity still holds on a well-separated
        world (the book_cs regime the soak example pins): identical
        truths and verdicts, <= 1e-9 end-state drift."""
        dataset = book_cs(scale=0.06).dataset
        reference = run_fusion(
            dataset,
            CopyParams(backend="python"),
            detector=_detector_for("index", CopyParams(backend="python")),
            config=FIVE_ROUNDS,
        )
        vectorized = run_fusion(
            dataset,
            CopyParams(backend="numpy"),
            detector=_detector_for("index", CopyParams(backend="numpy")),
            config=FIVE_ROUNDS,
        )
        assert vectorized.n_rounds == reference.n_rounds == 5
        assert vectorized.converged == reference.converged
        assert vectorized.chosen == reference.chosen
        for ref_round, vec_round in zip(reference.rounds, vectorized.rounds):
            assert (
                vec_round.detection.copying_pairs()
                == ref_round.detection.copying_pairs()
            )
        assert _drift(reference.probabilities, vectorized.probabilities) <= TOL
        assert _drift(reference.accuracies, vectorized.accuracies) <= TOL

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_parallel_detector_in_fusion_matches_sequential(self, executor):
        """The fuse-level parallel knobs reproduce the sequential loop."""
        dataset = book_cs(scale=0.08).dataset
        params = CopyParams(backend="numpy")
        sequential = run_fusion(
            dataset,
            params,
            detector=SingleRoundDetector(params, method="index"),
            config=FIVE_ROUNDS,
        )
        parallel = run_fusion(
            dataset,
            params,
            detector=SingleRoundDetector(
                params,
                method="index",
                n_partitions=3,
                executor=executor,
                reduce="tree",
            ),
            config=FIVE_ROUNDS,
        )
        assert parallel.chosen == sequential.chosen
        assert _drift(sequential.accuracies, parallel.accuracies) <= TOL
        for seq_round, par_round in zip(sequential.rounds, parallel.rounds):
            assert (
                par_round.detection.copying_pairs()
                == seq_round.detection.copying_pairs()
            )

    def test_fusion_backend_override_isolates_detection_backend(self):
        """fusion_backend='python' + backend='numpy' fuses bit-identically
        to the all-python reference (the soak's detection-only contract)."""
        dataset = book_cs(scale=0.06).dataset
        reference = run_fusion(
            dataset,
            CopyParams(backend="python"),
            detector=IncrementalDetector(CopyParams(backend="python")),
            config=FIVE_ROUNDS,
        )
        mixed = run_fusion(
            dataset,
            CopyParams(backend="numpy"),
            detector=IncrementalDetector(CopyParams(backend="numpy")),
            config=FIVE_ROUNDS,
            fusion_backend="python",
        )
        assert mixed.chosen == reference.chosen
        assert _drift(reference.accuracies, mixed.accuracies) == 0.0

    def test_unknown_fusion_backend_rejected(self):
        with pytest.raises(ValueError):
            run_fusion(
                motivating_example(), CopyParams(), fusion_backend="fortran"
            )


# ----------------------------------------------------------------------
# The round-persistent workspace
# ----------------------------------------------------------------------
class TestFusionWorkspace:
    def test_columnar_for_index_matches_from_index(self, params):
        dataset = book_cs(scale=0.06).dataset
        accs = [0.8] * dataset.n_sources
        probs = value_probabilities(dataset, accs, params)
        index = InvertedIndex.build(dataset, probs, accs, params)
        with FusionWorkspace(dataset, params) as workspace:
            fast = workspace.columnar_for_index(index)
        slow = ColumnarEntries.from_index(index)
        np.testing.assert_array_equal(fast.probs, slow.probs)
        np.testing.assert_array_equal(fast.main, slow.main)
        np.testing.assert_array_equal(fast.offsets, slow.offsets)
        np.testing.assert_array_equal(fast.providers, slow.providers)

    def test_seeded_bound_scans_never_walk_entry_providers(self):
        """The numpy bound family reads the round's one columnar index:
        once the workspace has seeded it, poisoning every
        ``IndexEntry.providers`` changes nothing — verdicts, cost and
        INCREMENTAL bookkeeping equal the run over the intact index, for
        the full scan and for the parallel engine's ``stop_at`` prefix."""

        class Poisoned:
            def __iter__(self):
                raise AssertionError("a numpy bound scan walked IndexEntry.providers")

            __len__ = __iter__

        params = CopyParams(backend="numpy")
        dataset = book_cs(scale=0.06).dataset
        accs = [0.55 + 0.08 * (source % 5) for source in range(dataset.n_sources)]
        probs = value_probabilities(dataset, accs, params)

        def outcomes(poison: bool) -> list:
            index = InvertedIndex.build(dataset, probs, accs, params)
            with FusionWorkspace(dataset, params) as workspace:
                index.set_columnar_entries(workspace.columnar_for_index(index))
            if poison:
                for entry in index.entries:
                    entry.providers = Poisoned()
            seen = []
            for use_timers, threshold in (
                (False, 0), (True, 0), (True, DEFAULT_HYBRID_THRESHOLD)
            ):
                scan = dict(
                    index=index, use_timers=use_timers,
                    hybrid_threshold=threshold, track_bookkeeping=True,
                )
                full = scan_with_bounds(dataset, probs, accs, params, **scan)
                prefix, prefix_books = scan_with_bounds(
                    dataset, probs, accs, params, **scan,
                    stop_at=index.n_entries // 2, collect_state=True,
                ).finalize("prefix")
                seen.append((
                    full.result.decisions, full.result.cost, full.bookkeeping,
                    prefix.decisions, prefix.cost, prefix_books,
                ))
            return seen

        intact = outcomes(poison=False)
        assert all(len(decisions) for decisions, *_ in intact)
        assert outcomes(poison=True) == intact

    def test_index_caches_columnar_entries(self, params):
        """Satellite: ColumnarEntries is built once per index, not per
        detect() call."""
        dataset = motivating_example()
        accs = [0.8] * dataset.n_sources
        probs = value_probabilities(dataset, accs, params)
        index = InvertedIndex.build(dataset, probs, accs, params)
        first = index.columnar_entries()
        assert index.columnar_entries() is first
        seeded = ColumnarEntries.from_index(index)
        index.set_columnar_entries(seeded)
        assert index.columnar_entries() is seeded

    def test_shared_items_cached_and_backend_agnostic(self):
        dataset = motivating_example()
        with FusionWorkspace(dataset, CopyParams(backend="numpy")) as ws_numpy:
            counts_numpy = ws_numpy.shared_items
            assert ws_numpy.shared_items is counts_numpy  # cached
        with FusionWorkspace(dataset, CopyParams(backend="python")) as ws_python:
            assert ws_python.shared_items == counts_numpy

    def test_executor_is_persistent_and_closed(self):
        with FusionWorkspace(motivating_example(), CopyParams()) as workspace:
            threads = workspace.executor("threads")
            assert workspace.executor("threads") is threads
            assert workspace.executor("serial") is not threads
            with pytest.raises(ValueError, match="unknown executor"):
                workspace.executor("gpu")
        assert workspace.closed
        with pytest.raises(RuntimeError):
            workspace.executor("threads")

    def test_close_is_idempotent(self):
        workspace = FusionWorkspace(motivating_example(), CopyParams())
        workspace.executor("threads")
        workspace.close()
        workspace.close()
        assert workspace.closed

    @pytest.mark.parametrize(
        "execution",
        [{}, dict(n_partitions=3, executor="threads", reduce="tree")],
        ids=["sequential", "partitioned-threads"],
    )
    def test_reused_workspace_matches_fresh_runs(self, execution):
        """One open workspace carried across two consecutive fusion runs
        (the long-lived-service shape: layouts, shared-item counts and
        the executor all warm the second time) changes nothing: truths,
        accuracies, probabilities and every verdict column equal a run
        that built and closed its own workspace."""
        dataset = book_cs(scale=0.06).dataset
        params = CopyParams(backend="numpy")

        def fuse(workspace=None):
            return run_fusion(
                dataset,
                params,
                detector=SingleRoundDetector(params, method="index", **execution),
                config=FIVE_ROUNDS,
                workspace=workspace,
            )

        fresh = fuse()
        with FusionWorkspace(dataset, params) as workspace:
            reused = [fuse(workspace), fuse(workspace)]
            assert not workspace.closed
        want = fresh.final_detection().columns()
        assert len(want) > 0
        for run in reused:
            assert run.chosen == fresh.chosen
            assert run.accuracies == fresh.accuracies
            assert run.probabilities == fresh.probabilities
            got = run.final_detection().columns()
            for column in fields(want):
                np.testing.assert_array_equal(
                    getattr(got, column.name), getattr(want, column.name)
                )

    def test_workspace_for_other_dataset_rejected(self, params):
        with FusionWorkspace(motivating_example(), params) as workspace:
            with pytest.raises(ValueError):
                run_fusion(book_cs(scale=0.05).dataset, params, workspace=workspace)

    def test_closed_workspace_rejected_up_front(self, params):
        dataset = motivating_example()
        workspace = FusionWorkspace(dataset, params)
        workspace.close()
        with pytest.raises(ValueError, match="closed"):
            run_fusion(dataset, params, workspace=workspace)


# ----------------------------------------------------------------------
# Executor lifecycle hygiene (exceptions mid-round, unlink-once)
# ----------------------------------------------------------------------
class _BoomDetector:
    """Binds the workspace, then raises partway through the run."""

    wants_workspace = True

    def __init__(self, fail_round: int = 2):
        self.fail_round = fail_round
        self.seen_workspaces = []

    def bind_workspace(self, workspace):
        if workspace is not None:
            self.seen_workspaces.append(workspace)

    def run_round(self, round_no, dataset, probabilities, accuracies):
        if round_no >= self.fail_round:
            raise RuntimeError("detector exploded mid-round")
        from repro.core import detect

        return detect(
            dataset, probabilities, accuracies, CopyParams(), method="index"
        )


class TestLifecycleHygiene:
    def test_owned_workspace_closed_on_detector_exception(self):
        detector = _BoomDetector()
        with pytest.raises(RuntimeError, match="exploded"):
            run_fusion(
                motivating_example(),
                CopyParams(backend="numpy"),
                detector=detector,
                config=FIVE_ROUNDS,
            )
        assert len(detector.seen_workspaces) == 1
        assert detector.seen_workspaces[0].closed

    def test_caller_owned_workspace_survives_detector_exception(self):
        dataset = motivating_example()
        params = CopyParams(backend="numpy")
        with FusionWorkspace(dataset, params) as workspace:
            with pytest.raises(RuntimeError, match="exploded"):
                run_fusion(
                    dataset,
                    params,
                    detector=_BoomDetector(),
                    config=FIVE_ROUNDS,
                    workspace=workspace,
                )
            assert not workspace.closed
        assert workspace.closed

    def test_detector_unbound_after_fusion(self):
        detector = SingleRoundDetector(CopyParams(backend="numpy"), method="index")
        run_fusion(
            motivating_example(),
            CopyParams(backend="numpy"),
            detector=detector,
            config=FusionConfig(max_rounds=2, min_rounds=1),
        )
        assert detector._workspace is None

    def test_process_executor_broadcasts_once_across_rounds(
        self, params, monkeypatch
    ):
        """A 3-round fusion on ``executor="processes"`` sends each forked
        worker the world once and then only in-place updates, and closing
        the workspace (twice) leaves no worker alive."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        dataset = book_cs(scale=0.05).dataset
        detector = SingleRoundDetector(
            params, method="index", n_partitions=3, executor="processes"
        )
        workspace = FusionWorkspace(dataset, params)
        run_fusion(
            dataset, params, detector=detector,
            config=FusionConfig(max_rounds=3, min_rounds=3, tolerance=0.0),
            workspace=workspace,
        )
        executor = workspace.executor("processes")
        workers = executor._remote.stats.workers
        assert len(workers) == 2
        for label, worker in workers.items():
            assert worker.worlds == 1, label
            assert worker.updates >= 1, label
        processes = executor._cluster.processes
        workspace.close()
        workspace.close()
        assert not any(proc.is_alive() for proc in processes)
