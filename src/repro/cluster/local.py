"""A local cluster: workers as forked processes on localhost.

:class:`LocalCluster` forks N :func:`~repro.cluster.worker.serve_worker`
processes — separate address spaces that share **no memory** with the
driver after the fork, reached over real sockets — so everything the
cluster executor does (world broadcast, task shipping, partials shipped
back) pays true wire costs.  It is the transport behind
``executor="processes"`` (:class:`repro.parallel.executors.ProcessesExecutor`)
and the harness of the conformance grid's ``remote`` axis, the
fault-injection tests (kill a worker mid-round) and the end-to-end
benchmark's cluster probe (``benchmarks/e2e/layers.py``).

A worker binds ``port=0`` (the kernel picks a free port) and sends its
bound address back over a pipe.  ``close()`` kills every worker; the
workers are daemonic and an ``atexit`` hook is registered as a safety
net, so a crashed session never leaks worker processes.
"""

from __future__ import annotations

import atexit
import multiprocessing

from .executor import ClusterExecutor
from .wire import ClusterError
from .worker import serve_worker

_FORK = multiprocessing.get_context("fork")


def _run_worker(host: str, address_pipe) -> None:
    """Forked child: bind, report ``"host:port"`` to the parent, serve."""
    server = serve_worker(host, 0)
    bound_host, port = server.server_address[:2]
    address_pipe.send(f"{bound_host}:{port}")
    address_pipe.close()
    try:
        server.serve_forever()
    finally:
        server.server_close()


class LocalCluster:
    """N forked localhost worker processes (context manager).

    Args:
        n_workers: how many workers to fork.
        host: interface the workers bind (localhost by default).

    Attributes:
        addresses: ``"host:port"`` per worker, fork order.
        processes: the underlying :class:`multiprocessing.Process`
            handles (the fault tests signal these directly).
    """

    def __init__(self, n_workers: int, host: str = "127.0.0.1"):
        if n_workers < 1:
            raise ClusterError(f"n_workers must be >= 1, got {n_workers}")
        self.processes: list = []
        self.addresses: list[str] = []
        self._owned_executors: list[ClusterExecutor] = []
        try:
            for _ in range(n_workers):
                reader, writer = _FORK.Pipe(duplex=False)
                proc = _FORK.Process(
                    target=_run_worker, args=(host, writer), daemon=True
                )
                proc.start()
                self.processes.append(proc)
                # Only the child may hold the write end: a child that dies
                # before it binds then reads as EOF here, not as a hang.
                writer.close()
                try:
                    self.addresses.append(reader.recv())
                except EOFError:
                    proc.join()
                    raise ClusterError(
                        f"cluster worker failed to start; exit code {proc.exitcode}"
                    ) from None
                finally:
                    reader.close()
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
        self.processes[index].join()

    def close(self) -> None:
        """Close owned executors and kill every worker (idempotent)."""
        for executor in self._owned_executors:
            executor.close()
        self._owned_executors.clear()
        # A worker holds nothing worth a graceful exit, and SIGKILL also
        # ends one that is stopped.
        for proc in self.processes:
            if proc.is_alive():
                proc.kill()
        for proc in self.processes:
            proc.join()
        atexit.unregister(self.close)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
