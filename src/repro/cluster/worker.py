"""The cluster worker: a threaded TCP server that scans partitions.

One worker is one long-lived process (``repro-copydetect
cluster-worker`` on a host of its own, or a
:class:`~repro.cluster.LocalCluster` fork) holding cached worlds in
memory:

* ``world`` — the driver broadcasts the full columnar world (the five
  :func:`~repro.core.kernel.world_arrays`: probs, main flags, CSR
  offsets, providers, accuracies) **once per session**.
  The worker copies them into writable buffers and keeps them for the
  session's lifetime.
* ``world-update`` — between fusion rounds the driver ships only the
  fields whose bytes changed; the worker rewrites its cached buffers
  *in place*, so multi-round fusion never re-establishes (or
  re-allocates) the world.  A missing session or a
  length mismatch answers ``stale`` and the driver falls back to a
  full broadcast.
* ``task`` — a partition's entry positions plus ``CopyParams`` (as
  JSON; float repr round-trips exactly).  The worker gathers its share
  with :meth:`ColumnarEntries.take`, runs the same
  :func:`~repro.core.kernel.scan_columnar` the in-process executors
  run and answers ``partial`` with the resulting
  :class:`~repro.core.kernel.PairTable`'s five arrays and its
  ``busy_seconds``.  It stores nothing: the driver reduces the
  partials, and a session holds only its world.

Anything a handler rejects — an unknown session, a corrupt frame, a
scan that raises — answers an ``error`` frame instead of killing the
connection, and the driver surfaces it as
:class:`~repro.cluster.wire.ClusterError`.  A worker only answers the
driver: it never dials another host.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

import numpy as np

from ..core.kernel import WORLD_FIELDS, scan_columnar, world_from_arrays
from ..core.params import CopyParams
from .wire import ClusterError, recv_message, send_message


class _Session:
    """One driver session's cached world."""

    def __init__(self, n_sources: int, arrays: dict[str, np.ndarray]):
        self.n_sources = n_sources
        # Writable copies: world-update rewrites these buffers in place
        # and the ColumnarEntries views below see the new values.
        self.arrays = {name: np.array(arrays[name]) for name in WORLD_FIELDS}
        self.cols, self.accuracies = world_from_arrays(self.arrays)
        self.lock = threading.Lock()


class WorkerServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server holding the worker's session state."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, _Handler)
        self.sessions: dict[str, _Session] = {}
        self.sessions_lock = threading.Lock()

    def session(self, meta: dict) -> _Session:
        """Look up the session a message names, or raise."""
        sid = meta.get("session")
        with self.sessions_lock:
            sess = self.sessions.get(sid)
        if sess is None:
            raise ClusterError(f"unknown session {sid!r} (world never broadcast?)")
        return sess


class _Handler(socketserver.BaseRequestHandler):
    """One connection's frame loop: dispatch messages until hangup."""

    def handle(self):
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                msg = recv_message(sock, eof_ok=True)
            except ClusterError:
                return  # corrupt frame / peer reset: drop the connection
            if msg is None:
                return  # clean hangup
            kind, meta, arrays = msg
            try:
                handler = _DISPATCH.get(kind)
                if handler is None:
                    raise ClusterError(f"unknown message kind {kind!r}")
                if handler(self.server, sock, meta, arrays):
                    return  # shutdown requested
            except ClusterError as exc:
                try:
                    send_message(sock, "error", {"error": str(exc)})
                except ClusterError:
                    return
            except Exception as exc:  # a scan raised: report, don't die
                try:
                    send_message(
                        sock, "error", {"error": f"{type(exc).__name__}: {exc}"}
                    )
                except ClusterError:
                    return


def _handle_ping(server: WorkerServer, sock, meta, arrays):
    import os

    send_message(
        sock, "pong", {"pid": os.getpid(), "sessions": len(server.sessions)}
    )


def _handle_world(server: WorkerServer, sock, meta, arrays):
    missing = [name for name in WORLD_FIELDS if name not in arrays]
    if missing:
        raise ClusterError(f"world broadcast missing arrays {missing}")
    sess = _Session(int(meta["n_sources"]), arrays)
    with server.sessions_lock:
        server.sessions[meta["session"]] = sess
    send_message(sock, "ok", {"cached": True})


def _handle_world_update(server: WorkerServer, sock, meta, arrays):
    sid = meta.get("session")
    with server.sessions_lock:
        sess = server.sessions.get(sid)
    if sess is None:
        # The driver falls back to a full broadcast on "stale".
        send_message(sock, "stale", {"reason": f"unknown session {sid!r}"})
        return
    with sess.lock:
        for name, arr in arrays.items():
            cached = sess.arrays.get(name)
            if cached is None or cached.dtype != arr.dtype or len(cached) != len(arr):
                send_message(sock, "stale", {"reason": f"layout changed for {name!r}"})
                return
        for name, arr in arrays.items():
            sess.arrays[name][:] = arr  # in place: cols/accuracies alias these
    send_message(sock, "ok", {"updated": sorted(arrays)})


def _handle_task(server: WorkerServer, sock, meta, arrays):
    sess = server.session(meta)
    positions = np.ascontiguousarray(arrays["positions"], dtype=np.int64)
    params = CopyParams(**meta["params"])
    started = time.perf_counter()
    table = scan_columnar(
        sess.cols.take(positions), sess.accuracies, params, sess.n_sources
    )
    busy = time.perf_counter() - started
    send_message(
        sock,
        "partial",
        {"task": meta["task"], "n_sources": table.n_sources, "busy_seconds": busy},
        {
            "keys": table.keys,
            "c_fwd": table.c_fwd,
            "c_bwd": table.c_bwd,
            "n_shared": table.n_shared,
            "saw_main": np.ascontiguousarray(table.saw_main, dtype=np.uint8),
        },
    )


def _handle_end_session(server: WorkerServer, sock, meta, arrays):
    with server.sessions_lock:
        server.sessions.pop(meta.get("session"), None)
    send_message(sock, "ok", {})


def _handle_shutdown(server: WorkerServer, sock, meta, arrays):
    send_message(sock, "ok", {})
    # shutdown() must run off the serve_forever thread; a helper thread
    # lets this handler's reply flush first.
    threading.Thread(target=server.shutdown, daemon=True).start()
    return True


_DISPATCH = {
    "ping": _handle_ping,
    "world": _handle_world,
    "world-update": _handle_world_update,
    "task": _handle_task,
    "end-session": _handle_end_session,
    "shutdown": _handle_shutdown,
}


def serve_worker(host: str = "127.0.0.1", port: int = 0) -> WorkerServer:
    """Bind a worker server (``port=0`` picks a free port; see
    ``server.server_address`` for the bound one).  The caller runs
    ``server.serve_forever()``."""
    return WorkerServer((host, port))
