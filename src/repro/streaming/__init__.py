"""Streaming layer: online exact INDEX detection behind an HTTP/SSE API.

The batch pipeline answers "given these claims, who copied whom?"; this
package keeps the answer *fresh* as claims keep arriving.  Four pieces,
bottom-up:

* :mod:`~repro.streaming.engine` — :class:`StreamEngine`, the
  synchronous epoch engine (ledger -> fusion with exact INDEX ->
  verdict-store publish), plus
  :func:`replay_epochs`, its batch-mode twin for lockstep-parity
  testing;
* :mod:`~repro.streaming.service` — :class:`StreamingService`, the
  asyncio micro-batcher (size/deadline triggers, per-source debounce,
  subscriber fan-out, drain-on-stop);
* :mod:`~repro.streaming.http` — :class:`StreamingServer`, the
  stdlib-only HTTP/1.1 + SSE wire layer (``POST /claims``,
  ``GET /events``, live ``/verdict`` ``/truth`` ``/explain`` queries);
* :mod:`~repro.streaming.client` — :class:`StreamClient`, the blocking
  :mod:`http.client`-based consumer used by scripts and benchmarks.

Run one with ``repro-copydetect serve`` (see ``--help``), or embed the
pieces directly — the quickstart lives in ``README.md`` and the layer
map in ``docs/ARCHITECTURE.md``.
"""

from .client import StreamClient, StreamClientError
from .engine import EpochResult, EpochState, StreamEngine, replay_epochs
from .http import StreamingServer, serve
from .service import StreamingService

__all__ = [
    "EpochResult",
    "EpochState",
    "StreamClient",
    "StreamClientError",
    "StreamEngine",
    "StreamingServer",
    "StreamingService",
    "replay_epochs",
    "serve",
]
