"""Length-prefixed binary wire format for the cluster worker protocol.

One message is one :mod:`repro.data.frames` frame with magic ``"RCLW"``
— the layout ``serving/codec.py`` writes to files, read off a socket.
The header carries the message ``kind`` (``"world"``, ``"task"``,
``"partial"``, ...) and a JSON ``meta`` dict beside the array table and
the payload's CRC-32.  Arrays travel as raw typed buffers (never
pickle), so a worker written against wire version N can refuse frames
of any other version with a clear error instead of misreading them, and a
corrupted or truncated frame surfaces as :class:`ClusterError` naming
the peer — callers never see a raw ``struct``/``json``/``socket``
traceback.

``CopyParams`` ships inside ``meta`` as plain JSON: Python's float
repr round-trips exactly (shortest-repr), so the worker reconstructs
bit-identical parameters without pickling.
"""

from __future__ import annotations

import socket
from typing import Mapping

import numpy as np

from ..data.frames import FrameFormat

#: Frame magic: Repro CLuster Wire.
MAGIC = b"RCLW"

#: The wire format this build speaks, and the only one it reads.  Bump
#: on any incompatible protocol change; peers of another version refuse
#: each other's frames with a clear :class:`ClusterError` instead of
#: misreading.  Version 2: partial tables carry ``(s1 << 32) | s2`` keys.
#: Version 3: a ``task`` is answered with its ``partial``; the ``merge``
#: and ``fetch`` messages are gone.  Version 4: the shipped ``params``
#: have no ``accuracy_clamp`` (it is a constant on both ends).
WIRE_VERSION = 4


class ClusterError(Exception):
    """A cluster operation failed (dead worker, corrupt frame, ...).

    The single error type of :mod:`repro.cluster`: everything the wire
    codec, a worker, or the executor can reject — truncated or
    corrupted frames, frames of another wire version, a worker that
    died mid-task, a connection refused — raises this, so callers
    catch one exception instead of raw ``socket``/``struct`` errors.
    """


#: ``max_header`` rejects garbage length prefixes before allocating (a
#: corrupt u32 can claim gigabytes).
_FRAME = FrameFormat(
    MAGIC,
    WIRE_VERSION,
    ClusterError,
    "cluster frame",
    fields=("kind", "meta"),
    if_older="restart the peer on this build",
    max_header=1 << 24,
)


def encode_message(
    kind: str,
    meta: Mapping | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> bytes:
    """Serialize one protocol message into a single frame buffer.

    Args:
        kind: message discriminator (``"world"``, ``"task"``, ...).
        meta: JSON-serializable metadata, stored verbatim under the
            header's ``"meta"`` key.
        arrays: named 1-D arrays; each is stored contiguously in its
            own dtype at an 8-byte-aligned payload offset.
    """
    return _FRAME.encode({"kind": kind, "meta": dict(meta or {})}, arrays)


def _recv_exact(sock: socket.socket, n: int, source: str) -> bytes:
    """Read exactly ``n`` bytes of a frame already under way."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:], n - got)
        except OSError as exc:
            raise ClusterError(f"{source}: connection lost mid-frame ({exc})") from exc
        if chunk == 0:
            raise ClusterError(
                f"{source}: connection closed mid-frame ({got} of {n} bytes)"
            )
        got += chunk
    return bytes(buf)


def send_message(
    sock: socket.socket,
    kind: str,
    meta: Mapping | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> int:
    """Encode and send one frame; returns the number of bytes written.

    Raises:
        ClusterError: when the peer is gone (reset, broken pipe).
    """
    frame = encode_message(kind, meta, arrays)
    try:
        sock.sendall(frame)
    except OSError as exc:
        peer = _peer_label(sock)
        raise ClusterError(f"{peer}: connection lost sending {kind!r} ({exc})") from exc
    return len(frame)


def recv_message(
    sock: socket.socket, eof_ok: bool = False
) -> tuple[str, dict, dict] | None:
    """Receive one frame and decode it into ``(kind, meta, arrays)``.

    Args:
        sock: connected stream socket.
        eof_ok: when true, a clean close at a frame boundary returns
            ``None`` instead of raising (a worker's serve loop uses
            this to notice the driver hanging up).

    Raises:
        ClusterError: for anything short of a well-formed frame this
            build can read — truncation, corruption, wrong magic, a
            failed checksum, or another wire version.
    """
    source = _peer_label(sock)
    # EOF before a frame's first byte is a clean close; anywhere later
    # it is a truncated frame, which _recv_exact reports.
    try:
        hung_up = sock.recv(1, socket.MSG_PEEK) == b""
    except OSError as exc:
        raise ClusterError(f"{source}: connection lost mid-frame ({exc})") from exc
    if hung_up:
        if eof_ok:
            return None
        raise ClusterError(f"{source}: connection closed before a reply arrived")
    (kind, meta), arrays = _FRAME.decode(
        lambda n: _recv_exact(sock, n, source), source
    )
    return kind, meta, arrays


def _peer_label(sock: socket.socket) -> str:
    """Best-effort ``host:port`` of the peer, for error messages."""
    try:
        # AF_UNIX peers (socketpair in tests) have a bare-string name.
        host, port = sock.getpeername()[:2]
        return f"{host}:{port}"
    except (OSError, ValueError):
        return "<disconnected>"
