"""Binary codec for verdict-store snapshot files.

One snapshot is one immutable file: a :mod:`repro.data.frames` frame with
magic ``"RVSS"`` whose header carries the snapshot metadata (id, kind,
base id, counts, optional display labels) beside the array table and the
payload's CRC-32.  Decoding reconstructs read-only NumPy views over the
payload bytes, so opening a snapshot costs one file read and no per-row
work.

Every way a file can be bad — short reads, foreign bytes, a mangled
header, a payload that fails its checksum, or a snapshot written by a
*newer or older* format than this library's — surfaces as
:class:`ServingError` with a message naming the file and the problem.
Callers never see a raw ``struct``/``json``/NumPy traceback; the
robustness tests in ``tests/test_serving.py`` pin this down.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..data.frames import FrameFormat

#: File magic: Repro Verdict Snapshot Store.
MAGIC = b"RVSS"

#: The snapshot format this build writes, and the only one it reads.
#: Bump on any incompatible schema change; a build refuses every other
#: version with a clear :class:`ServingError` instead of misreading it
#: (a store is derived from claims: re-publish, do not migrate).
#: Version 2: pair keys are ``(s1 << 32) | s2`` (were
#: ``s1 * n_sources + s2``).  Version 3: the store writes each signed
#: integer column at the smallest of int8/int16/int32/int64 that holds it
#: and widens it back on load (a version-2 build would merge the narrow
#: columns unwidened, and CSR offsets summed in int16 can wrap silently).
#: Version 4: a pair row stores ``pair_s1`` / ``pair_s2`` and its scores,
#: not its key and posteriors, which load derives under the meta's
#: ``alpha`` (a version-3 build would find no ``pair_keys`` to serve).
#: Version 5: the labels hold each item row's truth label, not every
#: value's (a version-4 build would find no ``values`` and serve none).
FORMAT_VERSION = 5


class ServingError(Exception):
    """A verdict-store operation failed (corrupt file, bad version, ...).

    The single error type of :mod:`repro.serving`: everything the store,
    codec or reader can reject — truncated or corrupted snapshot files,
    snapshots written by another format version, a missing ``CURRENT``
    pointer, a broken base-snapshot chain — raises this, so callers
    catch one exception instead of the codec's internals.
    """


_SNAPSHOT = FrameFormat(
    MAGIC,
    FORMAT_VERSION,
    ServingError,
    "verdict snapshot",
    fields=("meta",),
    if_older="re-publish the store from its claims with this build",
)


def encode_snapshot(meta: Mapping, arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a snapshot (metadata + named arrays) into one buffer.

    Args:
        meta: JSON-serializable snapshot metadata (stored verbatim under
            the header's ``"meta"`` key).
        arrays: named 1-D arrays; each is stored contiguously in its own
            dtype with an 8-byte-aligned offset.
    """
    return _SNAPSHOT.encode({"meta": dict(meta)}, arrays)


def decode_snapshot(data: bytes, source: str = "<bytes>") -> tuple[dict, dict]:
    """Decode one snapshot buffer into ``(meta, arrays)``.

    Args:
        data: the file's bytes.
        source: label (usually the path) for error messages.

    Returns:
        The ``meta`` dict and a name -> read-only ndarray mapping.

    Raises:
        ServingError: for anything short of a well-formed snapshot this
            build can read — truncation, corruption, wrong magic, or
            another format version.
    """
    data = bytes(data)
    pos = 0

    def read(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ServingError(
                f"{source}: truncated snapshot ({len(data) - pos} of the "
                f"next {n} bytes present)"
            )
        pos += n
        return data[pos - n : pos]

    (meta,), arrays = _SNAPSHOT.decode(read, source)
    return meta, arrays


def read_snapshot_file(path: Path | str) -> tuple[dict, dict]:
    """Read and decode one snapshot file.

    Raises:
        ServingError: when the file is missing, unreadable, or fails to
            decode.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ServingError(f"{path}: cannot read snapshot ({exc})") from exc
    return decode_snapshot(data, source=str(path))
