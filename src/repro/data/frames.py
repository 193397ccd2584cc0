"""Named-array blocks and checksummed binary frames.

Every binary surface of the library — verdict snapshots on disk
(:mod:`repro.serving.codec`), cluster messages on a socket
(:mod:`repro.cluster.wire`) — stores named 1-D arrays at 8-byte-aligned
offsets, described by a ``(name, dtype, offset, count)`` table.  This is
the one implementation of that layout.  An *array block* is any buffer
laid out that way (:func:`layout_arrays`, :func:`write_arrays`,
:func:`view_arrays`); a *frame* (:class:`FrameFormat`) wraps a block as::

    magic | u32 version | u32 header length
    | header JSON (utf-8) | zero padding to 8-byte alignment
    | raw little-endian array payload

where the header holds the caller's fields, then the array table, the
payload's CRC-32 and its length.
"""

from __future__ import annotations

import json
import operator
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

#: ``magic | u32 version | u32 header length``, little-endian.
PREAMBLE = struct.Struct("<4sII")


def align8(n: int) -> int:
    """Round ``n`` up to a multiple of 8 (keeps every dtype's view aligned)."""
    return (n + 7) & ~7


def layout_arrays(arrays: Mapping[str, np.ndarray]) -> tuple[list[tuple], int]:
    """Place named arrays back to back at 8-aligned offsets.

    Returns the ``(name, dtype, offset, count)`` table, in mapping order,
    and the byte offset one past the last array (the unpadded size).
    """
    table = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        offset = align8(offset)
        table.append((name, arr.dtype.str, offset, int(arr.size)))
        offset += arr.nbytes
    return table, offset


def view_arrays(buffer, table) -> dict[str, np.ndarray]:
    """Zero-copy array views over ``buffer``, one per table row.

    Writable exactly when the buffer is.  A row that overruns the buffer
    or names no dtype raises ValueError, TypeError or SyntaxError (NumPy
    parses comma-separated dtype strings as code).
    """
    return {
        name: np.frombuffer(buffer, dtype=np.dtype(dtype), count=count, offset=offset)
        for name, dtype, offset, count in table
    }


def write_arrays(buffer, table, arrays: Mapping[str, np.ndarray]) -> None:
    """Copy ``arrays`` into a writable buffer at their table offsets."""
    views = view_arrays(buffer, table)
    for name, arr in arrays.items():
        views[name][:] = arr


@dataclass(frozen=True)
class FrameFormat:
    """One checksummed binary format over the shared frame layout.

    Attributes:
        magic: the four bytes every frame starts with.
        version: the version written, and the only one read.
        error: the one exception type every decode failure raises, so
            callers never see a raw ``struct``/``json``/NumPy traceback.
        noun: what a frame is called in error messages.
        fields: the caller's header fields, in written order.
        if_older: what the error tells the holder of an older-version
            frame to do (no older version is ever decoded).
        max_header: largest header accepted before reading it (a corrupt
            length prefix on a socket can claim gigabytes); None where
            the source is already bounded, e.g. a file.
    """

    magic: bytes
    version: int
    error: type[Exception]
    noun: str
    fields: tuple[str, ...]
    if_older: str
    max_header: int | None = None

    def encode(
        self, fields: Mapping, arrays: Mapping[str, np.ndarray] | None = None
    ) -> bytes:
        """Serialize header fields plus named arrays into one frame."""
        arrays = arrays or {}
        table, end = layout_arrays(arrays)
        payload = bytearray(align8(end))
        write_arrays(payload, table, arrays)
        header = json.dumps(
            {
                **{name: fields[name] for name in self.fields},
                "arrays": table,
                "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
                "payload_length": len(payload),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        preamble = PREAMBLE.pack(self.magic, self.version, len(header))
        pad = align8(len(preamble) + len(header)) - len(preamble) - len(header)
        return b"".join((preamble, header, b"\0" * pad, payload))

    def decode(
        self, read: Callable[[int], bytes], source: str
    ) -> tuple[list, dict[str, np.ndarray]]:
        """Read one frame through ``read`` into ``(fields, arrays)``.

        ``read(n)`` returns exactly ``n`` bytes or raises :attr:`error`
        itself — running dry is the source's failure to word (a file is
        *truncated*, a connection *closed mid-frame*) — so a file's bytes
        and a socket are decoded by the same code.  ``source`` labels
        error messages.  Returns the :attr:`fields` values, in order, and
        the read-only arrays by name.
        """
        magic, version, header_len = PREAMBLE.unpack(read(PREAMBLE.size))
        if magic != self.magic:
            raise self.error(f"{source}: not a {self.noun} (bad magic {magic!r})")
        if version != self.version:
            if version > self.version:
                age, remedy = "newer", "upgrade the library to read it"
            else:
                age, remedy = "older", self.if_older
            raise self.error(
                f"{source}: {self.noun} format version {version} is {age} "
                f"than this build reads (version {self.version}); {remedy}"
            )
        if self.max_header is not None and header_len > self.max_header:
            raise self.error(
                f"{source}: corrupted {self.noun} (header claims {header_len} bytes)"
            )
        padded = read(align8(PREAMBLE.size + header_len) - PREAMBLE.size)
        try:
            header = json.loads(padded[:header_len].decode("utf-8"))
            fields = [header[name] for name in self.fields]
            table = header["arrays"]
            crc_expected = header["payload_crc32"]
            payload_length = operator.index(header["payload_length"])
            if payload_length < 0:
                raise ValueError("negative payload length")
        except (ValueError, KeyError, TypeError) as exc:
            raise self.error(
                f"{source}: corrupted {self.noun} header ({exc})"
            ) from exc
        payload = read(payload_length)
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_expected:
            raise self.error(f"{source}: {self.noun} payload fails its checksum")
        try:
            arrays = view_arrays(payload, table)
        except (ValueError, TypeError, SyntaxError) as exc:
            raise self.error(
                f"{source}: corrupted {self.noun} array table ({exc})"
            ) from exc
        return fields, arrays
