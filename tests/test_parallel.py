"""Partitioned detection: partitions, merge equivalence, executors."""

import inspect
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CopyParams, InvertedIndex, detect_index
from repro.data import (
    DatasetBuilder,
    motivating_accuracies,
    motivating_example,
    motivating_value_probabilities,
)
from repro.parallel import detect_hybrid_parallel, detect_index_parallel, engine
from repro.parallel.engine import ScanWorld, _block_shares, _stride_shares
from repro.parallel.executors import SerialExecutor
from tests.strategies import adversarial_worlds, worlds


def _example_index(example, example_probabilities, example_accuracies, params):
    return InvertedIndex.build(
        example, example_probabilities, example_accuracies, params
    )


def _indexed(detector, dataset, probabilities, accuracies, params, **kwargs):
    """A partitioned detector over the round's index, built here."""
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    return detector(dataset, probabilities, accuracies, params, index, **kwargs)


def scan_round(dataset, probabilities, accuracies, n_partitions=2):
    """``map_reduce`` arguments scanning a dataset's index in stride shares."""
    params = CopyParams()
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    world = ScanWorld(index, list(accuracies), dataset.n_sources, columnar=True)
    positions = [range(pid, index.n_entries, n_partitions) for pid in range(n_partitions)]
    return world, positions, params, "flat"


def _covers_once_in_order(shares, n_entries):
    """Every position in exactly one share, each share in processing order."""
    assert sorted(pos for share in shares for pos in share) == list(range(n_entries))
    for share in shares:
        assert list(share) == sorted(share)


class TestPartitioning:
    """The two share rules: INDEX deals positions round-robin, HYBRID cuts
    contiguous blocks; one share is the whole processing order."""

    N_ENTRIES = 13  # the motivating example's index

    def test_blocks_cover_everything_once(self):
        shares = _block_shares(self.N_ENTRIES, 3)
        _covers_once_in_order(shares, self.N_ENTRIES)
        assert [list(share) for share in shares] == [
            list(range(0, 5)), list(range(5, 9)), list(range(9, 13)),
        ]
        assert _block_shares(self.N_ENTRIES, 1) == [range(self.N_ENTRIES)]

    def test_stride_cover_everything_once(self):
        shares = _stride_shares(self.N_ENTRIES, 4)
        _covers_once_in_order(shares, self.N_ENTRIES)
        for pid, share in enumerate(shares):
            assert all(pos % 4 == pid for pos in share)
        assert _stride_shares(self.N_ENTRIES, 1) == [range(self.N_ENTRIES)]

    def test_more_partitions_than_entries(
        self, monkeypatch, example, example_probabilities, example_accuracies,
        params,
    ):
        """Surplus shares are empty, and the engine hands an executor only
        the non-empty ones."""
        n = _example_index(
            example, example_probabilities, example_accuracies, params
        ).n_entries
        for cut in (_stride_shares, _block_shares):
            shares = cut(n, n + 5)
            assert len(shares) == n + 5
            _covers_once_in_order(shares, n)
        handed = []
        scan = SerialExecutor.map_reduce

        def recording(self, world, partitions, params, reduce_mode):
            handed.append(list(partitions))
            return scan(self, world, partitions, params, reduce_mode)

        monkeypatch.setattr(SerialExecutor, "map_reduce", recording)
        for detector in (detect_index_parallel, detect_hybrid_parallel):
            _indexed(
                detector, example, example_probabilities, example_accuracies,
                params, n_partitions=n + 5,
            )
        # INDEX: one share per entry; HYBRID: the suffix after a 1-entry prefix.
        assert [len(call) for call in handed] == [n, n - 1]
        assert all(share for call in handed for share in call)

    def test_invalid_inputs(
        self, example, example_probabilities, example_accuracies, params
    ):
        for detector in (detect_index_parallel, detect_hybrid_parallel):
            with pytest.raises(ValueError, match="n_partitions must be >= 1"):
                _indexed(
                    detector, example, example_probabilities,
                    example_accuracies, params, n_partitions=0,
                )

    def test_stride_balances_weights(self):
        """On a skewed profile, stride shares carry similar pair loads."""
        from repro.fusion import vote_probabilities
        from repro.synth import stock_1day

        world = stock_1day(scale=0.01)
        ds = world.dataset
        params = CopyParams()
        index = InvertedIndex.build(
            ds, vote_probabilities(ds), [0.8] * ds.n_sources, params
        )
        k = index.provider_counts
        weights = [
            sum(k[pos] * (k[pos] - 1) // 2 for pos in share)
            for share in _stride_shares(index.n_entries, 4)
        ]
        assert max(weights) <= 2 * max(min(weights), 1)


class TestEquivalence:
    @pytest.mark.parametrize("cut", ["blocks", "stride"])
    @pytest.mark.parametrize("n_partitions", [1, 2, 5])
    def test_matches_sequential_on_example(
        self,
        monkeypatch,
        example,
        example_probabilities,
        example_accuracies,
        params,
        cut,
        n_partitions,
    ):
        """INDEX's merge is a plain sum: its own stride shares or HYBRID's
        blocks, any cut of the positions gives the sequential verdicts."""
        if cut == "blocks":
            monkeypatch.setattr(engine, "_stride_shares", _block_shares)
        sequential = detect_index(
            example, example_probabilities, example_accuracies, params
        )
        parallel = _indexed(
            detect_index_parallel,
            example,
            example_probabilities,
            example_accuracies,
            params,
            n_partitions=n_partitions,
        )
        assert set(parallel.decisions) == set(sequential.decisions)
        for pair, decision in parallel.decisions.items():
            reference = sequential.decisions[pair]
            assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)
            assert decision.copying == reference.copying
        assert parallel.cost.values_examined == sequential.cost.values_examined
        assert parallel.cost.pairs_considered == sequential.cost.pairs_considered

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.one_of(worlds(), adversarial_worlds()),
        n_partitions=st.sampled_from([1, 2, 5]),
        backend=st.sampled_from(["python", "numpy"]),
    )
    def test_cost_matches_sequential(self, world, n_partitions, backend):
        """Partitioned INDEX reports the paper's cost, sequential INDEX's:
        the incidences of tail-only pairs, which INDEX never opens, are
        not counted at any partition count."""
        dataset, probs, accs = world
        params = CopyParams(backend=backend)
        sequential = detect_index(dataset, probs, accs, params)
        parallel = _indexed(
            detect_index_parallel,
            dataset, probs, accs, params, n_partitions=n_partitions
        )
        assert parallel.cost == sequential.cost
        assert set(parallel.decisions) == set(sequential.decisions)

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), n_partitions=st.integers(min_value=1, max_value=6))
    def test_matches_sequential_on_random_worlds(self, world, n_partitions):
        dataset, probs, accs = world
        params = CopyParams()
        sequential = detect_index(dataset, probs, accs, params)
        parallel = _indexed(
            detect_index_parallel,
            dataset, probs, accs, params, n_partitions=n_partitions
        )
        assert parallel.copying_pairs() == sequential.copying_pairs()
        assert set(parallel.decisions) == set(sequential.decisions)

    def test_unknown_executor(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            _indexed(
                detect_index_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                executor="gpu",
            )

    def test_tail_only_pairs_stay_closed(
        self, example, example_probabilities, example_accuracies, params
    ):
        """S0/S5 share only tail values; no partitioning may open them."""
        ids = {name: i for i, name in enumerate(example.source_names)}
        for n_partitions in (1, 2, 7):
            result = _indexed(
                detect_index_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                n_partitions=n_partitions,
            )
            assert result.decision_for(ids["S0"], ids["S5"]) is None


class TestColumnarBackend:
    """The numpy backend's columnar payload path mirrors the dict path."""

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), n_partitions=st.integers(min_value=1, max_value=6))
    def test_matches_python_backend_on_random_worlds(self, world, n_partitions):
        dataset, probs, accs = world
        params = CopyParams(backend="python")
        python = _indexed(
            detect_index_parallel,
            dataset,
            probs,
            accs,
            params,
            n_partitions=n_partitions,
        )
        numpy_ = _indexed(
            detect_index_parallel,
            dataset,
            probs,
            accs,
            replace(params, backend="numpy"),
            n_partitions=n_partitions,
        )
        assert set(numpy_.decisions) == set(python.decisions)
        for pair, decision in numpy_.decisions.items():
            reference = python.decisions[pair]
            assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)
            assert decision.copying == reference.copying
        assert numpy_.cost.values_examined == python.cost.values_examined
        assert numpy_.cost.pairs_considered == python.cost.pairs_considered

    def test_backend_from_params(
        self, example, example_probabilities, example_accuracies
    ):
        """params.backend="numpy" routes the engine without the kwarg."""
        result = _indexed(
            detect_index_parallel,
            example,
            example_probabilities,
            example_accuracies,
            CopyParams(backend="numpy"),
            n_partitions=2,
        )
        sequential = detect_index(
            example,
            example_probabilities,
            example_accuracies,
            CopyParams(),
        )
        assert result.copying_pairs() == sequential.copying_pairs()

    def test_unknown_backend(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            _indexed(
                detect_index_parallel,
                example,
                example_probabilities,
                example_accuracies,
                replace(params, backend="gpu"),
            )


class TestHybridParallel:
    """Strong-evidence-prefix partitioning of the HYBRID scan."""

    def test_single_partition_equals_sequential_hybrid(
        self, example, example_probabilities, example_accuracies
    ):
        """With one block the prefix is everything: bit-identical HYBRID."""
        from repro.core import detect_hybrid

        for backend in ("python", "numpy"):
            params = CopyParams(backend=backend)
            parallel = _indexed(
                detect_hybrid_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                n_partitions=1,
            )
            sequential = detect_hybrid(
                example, example_probabilities, example_accuracies, params
            ).result
            assert parallel.decisions == sequential.decisions, backend

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), n_partitions=st.integers(min_value=1, max_value=5))
    def test_executors_agree_bitwise(self, world, n_partitions):
        dataset, probs, accs = world
        for backend in ("python", "numpy"):
            params = CopyParams(backend=backend)
            serial = _indexed(
                detect_hybrid_parallel,
                dataset, probs, accs, params, n_partitions=n_partitions
            )
            threaded = _indexed(
                detect_hybrid_parallel,
                dataset,
                probs,
                accs,
                params,
                n_partitions=n_partitions,
                executor="threads",
            )
            assert threaded.decisions == serial.decisions, backend
            assert threaded.cost.computations == serial.cost.computations

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), n_partitions=st.integers(min_value=2, max_value=4))
    def test_sound_against_exact_detection(self, world, n_partitions):
        """Early-copy verdicts are C^min-sound; survivors are exact."""
        dataset, probs, accs = world
        reference = detect_index(dataset, probs, accs, CopyParams())
        result = _indexed(
            detect_hybrid_parallel,
            dataset, probs, accs, CopyParams(), n_partitions=n_partitions
        )
        for pair, decision in result.decisions.items():
            exact = reference.decision_for(*pair)
            if decision.early and decision.copying:
                assert exact is not None and exact.copying
            if not decision.early:
                assert exact is not None
                assert decision.copying == exact.copying
                assert decision.c_fwd == pytest.approx(exact.c_fwd, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(world=worlds(), n_partitions=st.sampled_from([2, 3]))
    def test_backends_agree_on_verdicts(self, world, n_partitions):
        """Both backends fold the suffix into the prefix scan by one rule,
        so their verdicts agree and their costs are equal."""
        dataset, probs, accs = world
        python, numpy_ = (
            _indexed(
                detect_hybrid_parallel, dataset, probs, accs,
                CopyParams(backend=backend), n_partitions=n_partitions,
            )
            for backend in ("python", "numpy")
        )
        assert numpy_.cost == python.cost
        assert set(numpy_.decisions) == set(python.decisions)
        for pair, decision in numpy_.decisions.items():
            reference = python.decisions[pair]
            assert decision.copying == reference.copying
            assert decision.early == reference.early
            assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)
            assert decision.c_bwd == pytest.approx(reference.c_bwd, abs=1e-9)

    def test_unknown_executor(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            _indexed(
                detect_hybrid_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                executor="gpu",
            )

    def test_unknown_reduce_and_partition_axis(
        self, example, example_probabilities, example_accuracies, params
    ):
        """A bad reduce mode is rejected; the blocks are the only cut, so
        there is no partition axis to pass at all."""
        with pytest.raises(ValueError):
            _indexed(
                detect_hybrid_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                reduce="sum",
            )
        with pytest.raises(TypeError, match="partition_by"):
            _indexed(
                detect_hybrid_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                partition_by="work",
            )


class TestTreeReduce:
    """Tree-wise (pairwise) merging agrees with the flat reduce."""

    @settings(max_examples=25, deadline=None)
    @given(
        world=worlds(),
        n_partitions=st.integers(min_value=1, max_value=9),
        backend=st.sampled_from(["python", "numpy"]),
    )
    def test_index_tree_matches_flat(self, world, n_partitions, backend):
        dataset, probs, accs = world
        params = CopyParams(backend=backend)
        flat = _indexed(
            detect_index_parallel,
            dataset, probs, accs, params, n_partitions=n_partitions, reduce="flat"
        )
        tree = _indexed(
            detect_index_parallel,
            dataset, probs, accs, params, n_partitions=n_partitions, reduce="tree"
        )
        assert set(tree.decisions) == set(flat.decisions)
        assert tree.cost.values_examined == flat.cost.values_examined
        for pair, decision in tree.decisions.items():
            reference = flat.decisions[pair]
            assert decision.copying == reference.copying
            assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)
            assert decision.c_bwd == pytest.approx(reference.c_bwd, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(world=worlds(), n_partitions=st.integers(min_value=2, max_value=6))
    def test_hybrid_tree_matches_flat(self, world, n_partitions):
        dataset, probs, accs = world
        for backend in ("python", "numpy"):
            params = CopyParams(backend=backend)
            flat = _indexed(
                detect_hybrid_parallel,
                dataset, probs, accs, params, n_partitions=n_partitions
            )
            tree = _indexed(
                detect_hybrid_parallel,
                dataset,
                probs,
                accs,
                params,
                n_partitions=n_partitions,
                reduce="tree",
            )
            assert set(tree.decisions) == set(flat.decisions)
            for pair, decision in tree.decisions.items():
                reference = flat.decisions[pair]
                assert decision.copying == reference.copying
                assert decision.early == reference.early
                assert decision.c_fwd == pytest.approx(reference.c_fwd, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), backend=st.sampled_from(["python", "numpy"]))
    def test_single_partition_bit_identical_to_sequential(self, world, backend):
        """Acceptance: n_partitions=1 + tree reduce == sequential, bitwise."""
        from repro.core import detect_hybrid

        dataset, probs, accs = world
        params = CopyParams(backend=backend)
        index_seq = detect_index(dataset, probs, accs, params)
        index_par = _indexed(
            detect_index_parallel,
            dataset, probs, accs, params, n_partitions=1, reduce="tree"
        )
        assert index_par.decisions == index_seq.decisions
        assert index_par.cost == index_seq.cost
        hybrid_seq = detect_hybrid(dataset, probs, accs, params).result
        hybrid_par = _indexed(
            detect_hybrid_parallel,
            dataset,
            probs,
            accs,
            params,
            n_partitions=1,
            reduce="tree",
        )
        assert hybrid_par.decisions == hybrid_seq.decisions

    def test_unknown_reduce_mode(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            _indexed(
                detect_index_parallel,
                example,
                example_probabilities,
                example_accuracies,
                params,
                reduce="sum",
            )


class TestColumnarTake:
    def test_columnar_take_matches_from_index(
        self, example, example_probabilities, example_accuracies, params
    ):
        """Slicing the broadcast world == building the partition payload."""
        np = pytest.importorskip("numpy")
        from repro.core.kernel import ColumnarEntries

        index = _example_index(
            example, example_probabilities, example_accuracies, params
        )
        world = ColumnarEntries.from_index(index)
        for positions in ([], [0], list(range(0, index.n_entries, 2))):
            entries = [index.entries[pos] for pos in positions]
            sliced = world.take(positions)
            assert sliced.probs.tolist() == [e.probability for e in entries]
            assert sliced.main.tolist() == [p < index.tail_start for p in positions]
            assert np.diff(sliced.offsets).tolist() == [
                len(e.providers) for e in entries
            ]
            assert sliced.providers.tolist() == [
                s for e in entries for s in e.providers
            ]


# ----------------------------------------------------------------------
# Executor parity through the single entry point
# ----------------------------------------------------------------------
def _example_case(n_partitions):
    dataset = motivating_example()
    return (
        dataset,
        motivating_value_probabilities(dataset),
        motivating_accuracies(dataset),
        n_partitions,
    )


def _no_shared_values_case():
    """No multi-provider value: every partition is empty (regression:
    the columnar path once handed ThreadPoolExecutor max_workers=0)."""
    b = DatasetBuilder()
    b.add("S0", "item0", "a")
    b.add("S1", "item1", "b")
    dataset = b.build()
    return dataset, [0.5] * dataset.n_values, [0.8] * dataset.n_sources, 3


#: id -> (dataset, probabilities, accuracies, n_partitions).  The ids are
#: stable test names, not a partition axis: each method cuts one way.
PARITY_CASES = {
    "example-3-by-entries": _example_case(3),
    # 13 entries: more partitions than entries.
    "example-16-by-work": _example_case(16),
    "no-shared-values": _no_shared_values_case(),
}

#: Executor inputs; ``processes-no-shm`` is the forked-worker executor on
#: a host where every ``SharedMemory`` allocation raises ``OSError``: its
#: workers are reached over sockets only.  The python backend's loops stay
#: local, so ``remote`` is numpy-only, and ``processes`` under python must
#: be refused up front.
PARITY_EXECUTORS = {
    "python": ["serial", "threads", "processes"],
    "numpy": [
        "serial",
        "threads",
        "processes",
        "processes-no-shm",
        pytest.param("remote", marks=pytest.mark.cluster),
    ],
}


@pytest.fixture(scope="module")
def remote_executor():
    """One live 2-worker localhost cluster session for the module."""
    from repro.cluster import LocalCluster

    with LocalCluster(2) as cluster:
        yield cluster.executor()


class TestExecutorParity:
    """Where a partition runs never changes a verdict: every executor,
    reduce topology, backend and method reproduces the serial executor's
    decisions and cost counters exactly — or, for an out-of-process
    executor under the python backend, is refused before any scan."""

    def _check(self, request, monkeypatch, case, executor, reduce, backend, method):
        dataset, probs, accs, n_partitions = PARITY_CASES[case]
        params = CopyParams(backend=backend)
        detect = detect_index_parallel if method == "index" else detect_hybrid_parallel

        def run(executor, cluster=None):
            return _indexed(
                detect, dataset, probs, accs, params, n_partitions=n_partitions,
                executor=executor, reduce=reduce, cluster=cluster,
            )

        if backend == "python" and executor == "processes":
            with pytest.raises(ValueError, match="executor='processes' requires"):
                run(executor)
            return
        serial = run("serial")
        if executor == "remote":
            got = run("remote", request.getfixturevalue("remote_executor"))
        elif executor == "processes-no-shm":
            from multiprocessing import shared_memory

            def no_shm(*args, **kwargs):
                raise OSError("shared memory disabled for this test")

            monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
            got = run("processes")
        else:
            got = run(executor)
        assert got.decisions == serial.decisions
        assert got.cost == serial.cost
        if case == "no-shared-values":
            assert got.decisions == {}

    @pytest.mark.parametrize("method", ["index", "hybrid"])
    @pytest.mark.parametrize("reduce", ["flat", "tree"])
    @pytest.mark.parametrize("executor", PARITY_EXECUTORS["python"])
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_python_backend(
        self, request, monkeypatch, case, executor, reduce, method
    ):
        self._check(request, monkeypatch, case, executor, reduce, "python", method)

    @pytest.mark.parametrize("method", ["index", "hybrid"])
    @pytest.mark.parametrize("reduce", ["flat", "tree"])
    @pytest.mark.parametrize("executor", PARITY_EXECUTORS["numpy"])
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_numpy_backend(
        self, request, monkeypatch, case, executor, reduce, method
    ):
        self._check(request, monkeypatch, case, executor, reduce, "numpy", method)

    def test_every_executor_takes_the_same_map_reduce_arguments(self):
        """One protocol: no executor takes an argument the others lack."""
        from repro.cluster import ClusterExecutor
        from repro.parallel.executors import LOCAL_EXECUTORS

        for cls in [*LOCAL_EXECUTORS.values(), ClusterExecutor]:
            parameters = inspect.signature(cls.map_reduce).parameters.values()
            assert [(p.name, p.default) for p in parameters] == [
                (name, inspect.Parameter.empty)
                for name in ("self", "world", "partitions", "params", "reduce_mode")
            ], cls.__name__


class TestNoWorkspaceLeaks:
    """A partitioned ``detect()`` without a workspace opens its own
    executor and closes it before it returns; a caller's live cluster
    session is used, never closed."""

    @pytest.fixture(scope="class")
    def book_round(self):
        from repro.fusion.accu import value_probabilities
        from repro.synth import make_profile

        dataset = make_profile("book_cs", scale=0.1).dataset
        params = CopyParams()
        accuracies = [0.8] * dataset.n_sources
        return dataset, value_probabilities(dataset, accuracies, params), accuracies, params

    def _detect(self, book_round, method, executor, cluster=None):
        from repro.core import detect

        return detect(
            *book_round, method=method, n_partitions=2, executor=executor,
            cluster=cluster,
        )

    @pytest.mark.parametrize("method", ["index", "hybrid"])
    def test_threads_leave_no_pool_thread(self, book_round, method):
        import threading

        before = set(threading.enumerate())
        got = self._detect(book_round, method, "threads")
        assert set(threading.enumerate()) == before
        assert got.decisions == self._detect(book_round, method, "serial").decisions

    @pytest.mark.cluster
    @pytest.mark.parametrize("method", ["index", "hybrid"])
    def test_processes_leave_no_child(self, book_round, method):
        from multiprocessing import active_children

        before = set(active_children())
        got = self._detect(book_round, method, "processes")
        assert set(active_children()) == before
        assert got.decisions == self._detect(book_round, method, "serial").decisions

    @pytest.mark.cluster
    def test_a_callers_cluster_session_stays_open(self, book_round):
        from repro.cluster import LocalCluster

        with LocalCluster(2) as cluster, cluster.executor() as session:
            first = self._detect(book_round, "index", "remote", session)
            assert not session.closed
            second = self._detect(book_round, "index", "remote", session)
            assert second.decisions == first.decisions
            assert session.stats.rounds == 2
