"""Out-of-process execution: the cluster layer.

Carries the parallel engine's executor protocol to other processes over
a stdlib-only TCP protocol — selected end to end as ``executor="remote"``
(workers on any host) or ``executor="processes"`` (workers forked on
this one):

* :mod:`repro.cluster.wire` — the length-prefixed binary frame format
  (magic, version, CRC; arrays as raw typed buffers, never pickle) and
  :class:`ClusterError`, the layer's single error type.
* :mod:`repro.cluster.worker` — the worker process: caches the
  broadcast world per session, scans partitions with the same
  ``scan_columnar`` the in-process executors run, and answers each
  task with its partial table (it stores none).
* :mod:`repro.cluster.executor` — :class:`ClusterExecutor`, the
  driver: LPT task scheduling over the engine's work estimates,
  broadcast-once world shipping with in-place per-round updates, the
  engine's own ``ScanWorld.reduce`` over the collected partials,
  one-retry fault handling, and per-worker wire/timing stats.
* :mod:`repro.cluster.local` — :class:`LocalCluster`, workers forked
  on localhost (separate address spaces, real sockets): the transport
  of ``executor="processes"``, and the cluster the tests, the
  conformance grid and the bench run against.
"""

from .executor import (
    ClusterExecutor,
    ClusterStats,
    WorkerStats,
    parse_worker_spec,
)
from .local import LocalCluster
from .wire import WIRE_VERSION, ClusterError
from .worker import WorkerServer, serve_worker

__all__ = [
    "WIRE_VERSION",
    "ClusterError",
    "ClusterExecutor",
    "ClusterStats",
    "LocalCluster",
    "WorkerServer",
    "WorkerStats",
    "parse_worker_spec",
    "serve_worker",
]
