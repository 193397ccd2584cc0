"""Hand-rolled HTTP/1.1 + SSE front end for the streaming service.

No web framework: the whole wire layer is ``asyncio.start_server`` plus
a minimal request parser, which keeps the runtime dependency set at
stdlib + numpy.  The surface:

====================  ======================================================
``POST /claims``      JSON body ``{"claims": [{"source","item","value"},…]}``
                      (or a bare list); replies ``202`` with the accepted
                      count.  Deltas enter the micro-batcher — the reply
                      does *not* wait for the epoch.
``GET  /events``      ``text/event-stream`` of epoch events: one
                      ``event: epoch`` frame per published snapshot, with
                      the JSON event dict as ``data:``.  The first frame is
                      ``event: hello`` carrying current stats.
``GET  /verdict``     ``?s1=<id>&s2=<id>`` — the served pair verdict from
                      the freshest snapshot (``null`` if never observed).
``GET  /truth``       ``?item=<id-or-name>`` — the served fused truth.
``GET  /explain``     ``?s1=<id>&s2=<id>`` — live item-by-item evidence
                      from the latest epoch (top contributions included).
``GET  /stats``       ingestion counters (failed epochs, ``last_error``,
                      speculative prepares committed / discarded included)
                      + world dimensions.
====================  ======================================================

Error handling is deliberately boring: malformed requests get a ``400``
with a JSON ``error`` body, unknown paths a ``404``, queries before the
first epoch a ``409``; handler crashes are caught per-connection so one
bad request never takes the service down.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from ..core.result import PairNotObservedError
from ..data import ClaimDelta
from ..serving.codec import ServingError
from .service import StreamingService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.explain import PairExplanation
    from ..serving.reader import Truth, Verdict

#: Maximum accepted request-body size (a POST of ~100k claims).
MAX_BODY_BYTES = 16 * 1024 * 1024


class _BadRequest(Exception):
    """Maps to a 400 reply with the message as the JSON error body."""


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    reason = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        409: "Conflict",
        413: "Payload Too Large",
        500: "Internal Server Error",
    }.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _verdict_json(verdict: "Verdict | None") -> object:
    if verdict is None:
        return None
    return {
        "source_1": verdict.source_1,
        "source_2": verdict.source_2,
        "copying": verdict.copying,
        "early": verdict.early,
        "independent": verdict.independent,
        "forward": verdict.forward,
        "backward": verdict.backward,
        "snapshot_id": verdict.snapshot_id,
    }


def _truth_json(truth: "Truth | None") -> object:
    if truth is None:
        return None
    return {**truth._asdict(), "supporters": list(truth.supporters)}


def _explanation_json(explanation: "PairExplanation", top: int = 10) -> dict:
    return {
        "observed": True,
        "source_a": explanation.source_a,
        "source_b": explanation.source_b,
        "copying": explanation.copying,
        "independent": explanation.posterior.independent,
        "c_fwd": explanation.c_fwd,
        "c_bwd": explanation.c_bwd,
        "n_shared_values": explanation.n_shared_values,
        "n_different": explanation.n_different,
        "credibility_a": explanation.credibility_a,
        "credibility_b": explanation.credibility_b,
        "top_evidence": [
            {
                "item": ev.item,
                "value_a": ev.value_a,
                "value_b": ev.value_b,
                "shared": ev.shared,
                "probability": ev.probability,
                "c_fwd": ev.c_fwd,
                "conflict": ev.conflict,
            }
            for ev in explanation.top_evidence(top)
        ],
    }


def _sse_frame(event: str, payload: object) -> bytes:
    return (
        f"event: {event}\ndata: {json.dumps(payload, separators=(',', ':'))}\n\n"
    ).encode("utf-8")


class StreamingServer:
    """Asyncio TCP server exposing a :class:`StreamingService` over HTTP.

    Args:
        service: the running (or to-be-started) service.
        host: bind address.
        port: bind port; 0 picks a free one (see :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self, service: StreamingService, host: str = "127.0.0.1", port: int = 8731
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The actually bound port (differs from the request when 0)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start the service's batch loop and begin accepting connections."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, then stop the service (draining by default)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=drain)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
            if path == "/events" and method == "GET":
                await self._serve_events(writer)
                return
            response = self._dispatch(method, path, query, body)
        except _BadRequest as exc:
            response = _response(400, _json_bytes({"error": str(exc)}))
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - one bad request, not the server
            response = _response(500, _json_bytes({"error": repr(exc)}))
        try:
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method, split.path, parse_qs(split.query), body

    def _dispatch(
        self, method: str, path: str, query: dict, body: bytes
    ) -> bytes:
        if path == "/claims":
            if method != "POST":
                return _response(405, _json_bytes({"error": "POST only"}))
            return self._post_claims(body)
        if method != "GET":
            return _response(405, _json_bytes({"error": "GET only"}))
        if path == "/stats":
            return _response(200, _json_bytes(self.service.stats()))
        if path == "/verdict":
            s1, s2 = self._pair_params(query)
            return self._query_reply(
                lambda: {"verdict": _verdict_json(self.service.get_verdict(s1, s2))}
            )
        if path == "/truth":
            raw = query.get("item", [None])[0]
            if raw is None:
                raise _BadRequest("truth needs an item=<id-or-name> parameter")
            item: int | str = int(raw) if raw.lstrip("-").isdigit() else raw
            return self._query_reply(
                lambda: {"truth": _truth_json(self.service.get_truth(item))}
            )
        if path == "/explain":
            s1, s2 = self._pair_params(query)
            return self._query_reply(
                lambda: _explanation_json(self.service.explain_pair(s1, s2))
            )
        return _response(404, _json_bytes({"error": f"unknown path {path}"}))

    def _post_claims(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON ({exc})") from exc
        claims = payload.get("claims") if isinstance(payload, dict) else payload
        if not isinstance(claims, list):
            raise _BadRequest('expected {"claims": [...]} or a JSON list')
        try:
            deltas = [ClaimDelta.from_json(obj) for obj in claims]
        except ValueError as exc:
            raise _BadRequest(str(exc)) from exc
        accepted = self.service.submit(deltas)
        return _response(
            202,
            _json_bytes(
                {"accepted": accepted, "pending": self.service.stats()["pending"]}
            ),
        )

    def _pair_params(self, query: dict) -> tuple[int, int]:
        try:
            return (int(query["s1"][0]), int(query["s2"][0]))
        except (KeyError, ValueError, IndexError) as exc:
            raise _BadRequest(
                "needs integer s1=<id>&s2=<id> parameters"
            ) from exc

    def _query_reply(self, compute) -> bytes:
        """Run a read query, mapping service states to HTTP statuses."""
        try:
            return _response(200, _json_bytes(compute()))
        except PairNotObservedError as exc:
            # Only /explain raises this (the reader returns None for
            # unobserved pairs): an unobserved pair is independent by
            # construction, which is an answer, not an error.
            return _response(
                200, _json_bytes({"observed": False, "detail": str(exc)})
            )
        except (RuntimeError, ServingError) as exc:
            # No store / no epoch / nothing published yet: the query is
            # early, not malformed.
            return _response(409, _json_bytes({"error": str(exc)}))
        except ValueError as exc:
            return _response(400, _json_bytes({"error": str(exc)}))

    async def _serve_events(self, writer: asyncio.StreamWriter) -> None:
        """Stream epoch events to one SSE client until it disconnects."""
        queue = self.service.subscribe()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            writer.write(_sse_frame("hello", self.service.stats()))
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write(_sse_frame(event.get("type", "epoch"), event))
                await writer.drain()
                if event.get("type") == "shutdown":
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.service.unsubscribe(queue)
            writer.close()
