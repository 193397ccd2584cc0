"""Remote-worker execution: wire codec, scheduler, parity, faults, stats.

The parity and fault tests spawn real worker interpreters
(:class:`repro.cluster.LocalCluster`) and talk to them over localhost
TCP — the same simulated cluster the end-to-end benchmark probes
(``benchmarks/e2e/layers.py``) — so they carry the ``cluster`` marker
for selective runs (``pytest -m "not cluster"`` skips every
subprocess-spawning test).
"""

from __future__ import annotations

import contextlib
import gc
import socket
import struct
import threading
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import (
    ClusterError,
    ClusterExecutor,
    LocalCluster,
    parse_worker_spec,
    resolve_cluster,
    serve_worker,
)
from repro.cluster.executor import assign_buckets_lpt
from repro.cluster.wire import (
    MAGIC,
    WIRE_VERSION,
    encode_message,
    recv_message,
    send_message,
)
from repro.core import CopyParams, InvertedIndex
from repro.core.kernel import PairTable
from repro.parallel import detect_hybrid_parallel, detect_index_parallel
from repro.parallel.engine import ScanWorld
from tests.test_parallel import _indexed


# ----------------------------------------------------------------------
# Wire codec (no subprocesses: socketpair + raw frames)
# ----------------------------------------------------------------------
class TestWire:
    def _roundtrip(self, kind, meta, arrays):
        left, right = socket.socketpair()
        try:
            send_message(left, kind, meta, arrays)
            return recv_message(right)
        finally:
            left.close()
            right.close()

    def test_roundtrip_arrays_and_meta(self):
        arrays = {
            "probs": np.array([0.25, 0.5, 1.0 / 3.0]),
            "main": np.array([1, 0, 1], dtype=np.uint8),
            "offsets": np.array([0, 2, 5], dtype=np.int64),
        }
        kind, meta, got = self._roundtrip("world", {"session": "s1"}, arrays)
        assert kind == "world"
        assert meta["session"] == "s1"
        assert set(got) == set(arrays)
        for name, arr in arrays.items():
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)
        # Raw-buffer transport: floats come back bit-identical.
        assert got["probs"].tobytes() == arrays["probs"].tobytes()

    def test_roundtrip_no_arrays(self):
        kind, meta, arrays = self._roundtrip("ping", {"n": 7}, None)
        assert kind == "ping" and meta == {"n": 7} and arrays == {}

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right, eof_ok=True) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        frame = encode_message("task", {"x": 1}, {"a": np.arange(4)})
        left, right = socket.socketpair()
        try:
            left.sendall(frame[: len(frame) - 3])
            left.close()
            with pytest.raises(ClusterError, match="closed mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_bad_magic_raises(self):
        frame = bytearray(encode_message("ping", {}))
        frame[:4] = b"XXXX"
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            left.close()
            with pytest.raises(ClusterError, match="magic"):
                recv_message(right)
        finally:
            right.close()

    def test_newer_version_raises(self):
        frame = bytearray(encode_message("ping", {}))
        frame[4:8] = struct.pack("<I", WIRE_VERSION + 1)
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            left.close()
            with pytest.raises(ClusterError, match="version"):
                recv_message(right)
        finally:
            right.close()

    def test_corrupted_payload_fails_crc(self):
        frame = bytearray(encode_message("task", {}, {"a": np.arange(8)}))
        frame[-1] ^= 0xFF
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            left.close()
            with pytest.raises(ClusterError, match="checksum"):
                recv_message(right)
        finally:
            right.close()

    def test_magic_constant(self):
        assert MAGIC == b"RCLW" and len(MAGIC) == 4


# ----------------------------------------------------------------------
# The scheduler and the worker-spec parser (pure functions)
# ----------------------------------------------------------------------
class TestScheduler:
    def test_covers_every_task_once(self):
        buckets = assign_buckets_lpt([5, 1, 4, 1, 1], 2)
        assert sorted(t for b in buckets for t in b) == [0, 1, 2, 3, 4]

    def test_balances_heaviest_first(self):
        buckets = assign_buckets_lpt([10, 1, 1, 1], 2)
        # LPT: the heavy task gets a bucket to itself.
        assert [0] in buckets
        assert sorted(t for b in buckets for t in b) == [0, 1, 2, 3]

    def test_deterministic(self):
        weights = [3, 7, 3, 1, 9, 2]
        assert assign_buckets_lpt(weights, 3) == assign_buckets_lpt(weights, 3)

    def test_single_bucket_gets_everything(self):
        assert assign_buckets_lpt([2, 2, 2], 1) == [[0, 1, 2]]

    def test_more_buckets_than_tasks(self):
        buckets = assign_buckets_lpt([1, 1], 4)
        assert sorted(t for b in buckets for t in b) == [0, 1]
        assert len(buckets) == 4

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            assign_buckets_lpt([1], 0)


class TestWorkerSpec:
    def test_string_spec(self):
        assert parse_worker_spec("a:1,b:2") == [("a", 1), ("b", 2)]

    def test_sequence_spec(self):
        assert parse_worker_spec(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]

    def test_ipv6_style_uses_last_colon(self):
        assert parse_worker_spec("::1:9000") == [("::1", 9000)]

    @pytest.mark.parametrize("bad", ["", "hostonly", "h:notaport", []])
    def test_malformed_raises(self, bad):
        with pytest.raises(ClusterError):
            parse_worker_spec(bad)

    def test_no_worker_list_anywhere_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_CLUSTER_WORKERS", raising=False)
        with pytest.raises(ClusterError, match="REPRO_CLUSTER_WORKERS"):
            resolve_cluster(None)


# ----------------------------------------------------------------------
# Live-cluster tests (subprocess workers over localhost TCP)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster():
    """One 2-worker cluster shared by every non-destructive test."""
    with LocalCluster(2) as lc:
        yield lc


@pytest.fixture(scope="module")
def executor(cluster):
    return cluster.executor()


def _index(example, example_probabilities, example_accuracies, params):
    return InvertedIndex.build(
        example, example_probabilities, example_accuracies, params
    )


@contextlib.contextmanager
def _in_process_workers(n_workers):
    """``n_workers`` :func:`serve_worker` servers, each on a daemon thread."""
    servers = [serve_worker() for _ in range(n_workers)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield servers
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


def _address(server) -> str:
    host, port = server.server_address[:2]
    return f"{host}:{port}"


def _tables_held(server) -> int:
    """PairTables a worker's sessions hold, directly or inside a dict."""
    held = 0
    for sess in server.sessions.values():
        for value in vars(sess).values():
            values = value.values() if isinstance(value, dict) else (value,)
            held += sum(isinstance(v, PairTable) for v in values)
    return held


def _assert_bit_identical(ref, got):
    assert ref.decisions.keys() == got.decisions.keys()
    for pair in ref.decisions:
        assert got.decisions[pair] == ref.decisions[pair], pair
    assert got.cost.values_examined == ref.cost.values_examined
    assert got.cost.pairs_considered == ref.cost.pairs_considered


@pytest.mark.cluster
class TestRemoteParity:
    @pytest.mark.parametrize("reduce_mode", ["flat", "tree"])
    def test_index_matches_serial(
        self,
        executor,
        example,
        example_probabilities,
        example_accuracies,
        params,
        reduce_mode,
    ):
        kwargs = dict(n_partitions=3, reduce=reduce_mode)
        ref = _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            executor="serial", **kwargs,
        )
        got = _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            executor="remote", cluster=executor, **kwargs,
        )
        _assert_bit_identical(ref, got)

    @pytest.mark.parametrize("reduce_mode", ["flat", "tree"])
    def test_hybrid_matches_serial(
        self,
        executor,
        example,
        example_probabilities,
        example_accuracies,
        params,
        reduce_mode,
    ):
        kwargs = dict(n_partitions=3, reduce=reduce_mode)
        ref = _indexed(
            detect_hybrid_parallel,
            example, example_probabilities, example_accuracies, params,
            executor="serial", **kwargs,
        )
        got = _indexed(
            detect_hybrid_parallel,
            example, example_probabilities, example_accuracies, params,
            executor="remote", cluster=executor, **kwargs,
        )
        _assert_bit_identical(ref, got)

    def test_more_partitions_than_workers(
        self, executor, example, example_probabilities, example_accuracies,
        params,
    ):
        ref = _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            n_partitions=7, executor="serial", reduce="tree",
        )
        got = _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            n_partitions=7, executor="remote", reduce="tree", cluster=executor,
        )
        _assert_bit_identical(ref, got)

    def test_single_worker_matches_sequential(
        self, example, example_probabilities, example_accuracies, params
    ):
        ref = _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            n_partitions=3, executor="serial", reduce="tree",
        )
        with LocalCluster(1) as lc, lc.executor() as ex:
            got = _indexed(
                detect_index_parallel,
                example, example_probabilities, example_accuracies, params,
                n_partitions=3, executor="remote", reduce="tree", cluster=ex,
            )
        _assert_bit_identical(ref, got)

    def test_four_workers_on_a_wide_sparse_world(self):
        """Worker count and pair layout are invisible to the merge: four
        workers on a 1,200-source Zipf world, sparse pair tables on the
        wire, reproduce the serial executor bit for bit (INDEX and
        HYBRID).  The other tests here run 1 or 2 workers on the dense
        13-entry example."""
        from tests.test_pairspace import sparse_problem

        dataset, probs, accs = sparse_problem(1205, n_sources=1200, n_items=120)
        params = CopyParams(backend="numpy", pair_layout="sparse")
        runs = ((detect_index_parallel, 8), (detect_hybrid_parallel, 4))
        with LocalCluster(4) as lc, lc.executor() as ex:
            for detect, n_partitions in runs:
                ref = _indexed(
                    detect, dataset, probs, accs, params,
                    n_partitions=n_partitions, executor="serial", reduce="tree",
                )
                got = _indexed(
                    detect, dataset, probs, accs, params,
                    n_partitions=n_partitions, executor="remote", reduce="tree",
                    cluster=ex,
                )
                assert len(ref.decisions) > 5_000
                _assert_bit_identical(ref, got)
            assert all(w.tasks for w in ex.stats.workers.values())

    def test_remote_requires_numpy_backend(
        self, example, example_probabilities, example_accuracies
    ):
        with pytest.raises(ValueError, match="backend"):
            _indexed(
                detect_index_parallel,
                example,
                example_probabilities,
                example_accuracies,
                CopyParams(backend="python"),
                n_partitions=2,
                executor="remote",
            )


@pytest.mark.cluster
class TestStats:
    def test_wire_and_timing_stats_populate(
        self, executor, example, example_probabilities, example_accuracies,
        params,
    ):
        _indexed(
            detect_index_parallel,
            example, example_probabilities, example_accuracies, params,
            n_partitions=3, executor="remote", reduce="tree", cluster=executor,
        )
        stats = executor.stats
        assert stats.rounds >= 1
        assert stats.broadcast_bytes > 0
        assert stats.task_bytes > 0
        assert stats.result_bytes > 0
        assert sum(w.tasks for w in stats.workers.values()) >= 3
        assert sum(w.busy_seconds for w in stats.workers.values()) > 0
        payload = stats.as_dict()
        assert payload["rounds"] == stats.rounds
        assert "cluster:" in stats.summary()

    def test_broadcast_once_across_fusion_rounds(
        self, cluster, example, params
    ):
        from repro.core import SingleRoundDetector
        from repro.fusion import run_fusion
        from repro.fusion.pipeline import FusionConfig
        from repro.fusion.workspace import FusionWorkspace

        spec = ",".join(cluster.addresses)
        with FusionWorkspace(example, params) as ws:
            detector = SingleRoundDetector(
                params, method="index", n_partitions=3, executor="remote",
                reduce="tree", cluster=spec,
            )
            run_fusion(
                example, params, detector=detector,
                config=FusionConfig(max_rounds=3, min_rounds=3), workspace=ws,
            )
            ex = ws.executor("remote", spec)
            assert ex.stats.rounds >= 3
            for label, worker in ex.stats.workers.items():
                # One full world frame per worker per session; later
                # rounds ship only the diff.
                assert worker.worlds == 1, label
                assert worker.updates >= 1, label
            assert ex.stats.update_bytes > 0

    def test_workspace_reuses_and_closes_executor(
        self, cluster, executor, example, params
    ):
        from repro.fusion.workspace import FusionWorkspace

        spec = ",".join(cluster.addresses)
        ws = FusionWorkspace(example, params)
        first = ws.executor("remote", spec)
        # Any spelling of the same worker list is the same session.
        assert ws.executor("remote", parse_worker_spec(spec)) is first
        # A live executor passes through and stays the caller's to close.
        assert ws.executor("remote", executor) is executor
        assert resolve_cluster(executor) is executor
        ws.close()
        assert first.closed
        assert not executor.closed
        with pytest.raises(RuntimeError):
            ws.executor("remote", spec)


@pytest.mark.cluster
class TestFaults:
    def _round(self, example, example_probabilities, example_accuracies, params):
        """``map_reduce`` arguments for one tree-reduced round."""
        index = _index(
            example, example_probabilities, example_accuracies, params
        )
        world = ScanWorld(
            index, list(example_accuracies), example.n_sources, columnar=True
        )
        positions = [range(pid, index.n_entries, 4) for pid in range(4)]
        return world, positions, params, "tree"

    def test_round_retries_on_surviving_worker(
        self, example, example_probabilities, example_accuracies, params
    ):
        with LocalCluster(2) as lc, lc.executor() as ex:
            round_args = self._round(
                example, example_probabilities, example_accuracies, params
            )
            baseline = ex.map_reduce(*round_args)
            lc.kill_worker(0)
            retried = ex.map_reduce(*round_args)
            assert ex.stats.retries >= 1
            assert retried.keys.tobytes() == baseline.keys.tobytes()
            assert retried.c_fwd.tobytes() == baseline.c_fwd.tobytes()
            assert retried.c_bwd.tobytes() == baseline.c_bwd.tobytes()

    def test_all_workers_dead_is_one_clear_error(
        self, example, example_probabilities, example_accuracies, params
    ):
        with LocalCluster(2) as lc, lc.executor() as ex:
            round_args = self._round(
                example, example_probabilities, example_accuracies, params
            )
            ex.map_reduce(*round_args)
            lc.kill_worker(0)
            lc.kill_worker(1)
            with pytest.raises(ClusterError) as excinfo:
                ex.map_reduce(*round_args)
            # Transport failures surface as ClusterError, never as a raw
            # socket exception.
            assert not isinstance(excinfo.value, ConnectionError)

    def test_connect_to_nothing_raises_cluster_error(self):
        # Grab a port that is certainly not listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ClusterError, match="cannot connect"):
            ClusterExecutor([("127.0.0.1", port)], timeout=2.0)

    def test_a_failed_connect_closes_the_sockets_it_opened(self):
        """A constructor that has dialed one live worker and then meets a
        refused port closes the live socket before it raises."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        refused = ("127.0.0.1", probe.getsockname()[1])
        probe.close()
        with _in_process_workers(1) as (server,):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(ClusterError, match="cannot connect"):
                    ClusterExecutor([_address(server), refused], timeout=2.0)
                gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    @pytest.mark.parametrize("reduce_mode", ["flat", "tree"])
    def test_rounds_over_one_world_leave_no_partial_on_a_worker(
        self, example, example_probabilities, example_accuracies, params,
        reduce_mode,
    ):
        """A worker answers each task with its partial and keeps none:
        five rounds over an unchanged world hold no table between rounds
        and merge to round 1's bytes every time."""
        *round_args, _ = self._round(
            example, example_probabilities, example_accuracies, params
        )
        columns = ("keys", "c_fwd", "c_bwd", "n_shared", "saw_main")
        with _in_process_workers(2) as servers, ClusterExecutor(
            [_address(server) for server in servers]
        ) as ex:
            first = None
            for _ in range(5):
                merged = ex.map_reduce(*round_args, reduce_mode)
                assert [len(server.sessions) for server in servers] == [1, 1]
                assert [_tables_held(server) for server in servers] == [0, 0]
                got = [getattr(merged, name).tobytes() for name in columns]
                first = first or got
                assert got == first
            assert all(w.tasks for w in ex.stats.workers.values())


@pytest.mark.cluster
class TestCli:
    @pytest.fixture(scope="class")
    def claims_csv(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cluster_cli")
        assert main(
            ["generate", "book_cs", "--scale", "0.05", "--seed", "5",
             "-o", str(out)]
        ) == 0
        return str(out / "claims.csv")

    def test_detect_remote_prints_cluster_stats(
        self, cluster, claims_csv, capsys
    ):
        code = main(
            ["detect", claims_csv, "--method", "index",
             "--n-partitions", "3", "--executor", "remote",
             "--workers", ",".join(cluster.addresses)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Copying detected" in out
        assert "cluster: 2 worker(s)" in out

    def test_fuse_remote_prints_cluster_stats(
        self, cluster, claims_csv, capsys
    ):
        code = main(
            ["fuse", claims_csv, "--method", "index", "--max-rounds", "3",
             "--n-partitions", "3", "--executor", "remote",
             "--workers", ",".join(cluster.addresses)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster: 2 worker(s)" in out

    def test_workers_from_environment(
        self, cluster, claims_csv, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CLUSTER_WORKERS", ",".join(cluster.addresses)
        )
        code = main(
            ["detect", claims_csv, "--method", "index",
             "--n-partitions", "2", "--executor", "remote"]
        )
        assert code == 0
        assert "cluster:" in capsys.readouterr().out

    def test_remote_without_workers_fails_cleanly(
        self, claims_csv, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CLUSTER_WORKERS", raising=False)
        with pytest.raises(SystemExit):
            main(
                ["detect", claims_csv, "--method", "index",
                 "--n-partitions", "2", "--executor", "remote"]
            )
