"""A simulated cluster: workers as separately spawned interpreters.

:class:`LocalCluster` spawns N ``repro-copydetect cluster-worker``
processes on localhost — genuinely separate Python interpreters with
**no shared memory** and real sockets, so everything the remote
executor does (world broadcast, task shipping, partials shipped back)
pays true wire costs.  This is the harness behind the
conformance grid's ``remote`` axis, the fault-injection tests (kill a
worker mid-round) and the end-to-end benchmark's cluster probe
(``benchmarks/e2e/layers.py``).

Workers bind ``port=0`` (the kernel picks a free port — the same
collision-free pattern the streaming tests use) and print their bound
address on stdout, which the parent parses.  ``close()`` terminates
every worker; an ``atexit`` hook is registered as a safety net so a
crashed test session never leaks worker processes.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
from pathlib import Path

from .executor import ClusterExecutor
from .wire import ClusterError

#: The stdout line a worker prints once bound (parsed by the parent).
READY_PREFIX = "cluster worker listening on "


def _worker_env() -> dict:
    """Child environment: make ``repro`` importable however we were."""
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


class LocalCluster:
    """N localhost worker subprocesses (context manager).

    Args:
        n_workers: how many worker interpreters to spawn.
        host: interface the workers bind (localhost by default).

    Attributes:
        addresses: ``"host:port"`` per worker, spawn order.
        processes: the underlying :class:`subprocess.Popen` handles
            (the fault tests ``kill()`` these directly).
    """

    def __init__(self, n_workers: int, host: str = "127.0.0.1"):
        if n_workers < 1:
            raise ClusterError(f"n_workers must be >= 1, got {n_workers}")
        self.processes: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        self._owned_executors: list[ClusterExecutor] = []
        env = _worker_env()
        try:
            for _ in range(n_workers):
                proc = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "cluster-worker",
                        "--host",
                        host,
                        "--port",
                        "0",
                    ],
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                self.processes.append(proc)
                line = proc.stdout.readline()
                if not line.startswith(READY_PREFIX):
                    proc.kill()
                    raise ClusterError(
                        f"cluster worker failed to start (said {line!r}); "
                        f"exit code {proc.wait()}"
                    )
                self.addresses.append(line[len(READY_PREFIX) :].strip())
        except Exception:
            self.close()
            raise
        atexit.register(self.close)

    def executor(self, **kwargs) -> ClusterExecutor:
        """A fresh :class:`ClusterExecutor` over all workers.

        The cluster owns it: it is closed automatically with the
        cluster (closing earlier is fine — ``close`` is idempotent).
        """
        executor = ClusterExecutor(self.addresses, **kwargs)
        self._owned_executors.append(executor)
        return executor

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker (fault-injection hook for tests)."""
        self.processes[index].kill()
        self.processes[index].wait()

    def close(self) -> None:
        """Close owned executors and terminate every worker (idempotent)."""
        for executor in self._owned_executors:
            try:
                executor.close()
            except ClusterError:  # pragma: no cover - best-effort teardown
                pass
        self._owned_executors.clear()
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
