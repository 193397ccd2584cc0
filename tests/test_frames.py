"""Format stability of the two binary formats over the shared framing module.

The golden bytes under ``tests/data/golden_frames/`` were first written
by the public encoders at commit 465d2c0, when ``serving/codec.py`` and
``cluster/wire.py`` each hand-rolled their own framing (see
``tests/make_golden_frames.py``).  Both now sit on
:mod:`repro.data.frames`; these tests hold them to the same bytes and the
same error contract.  Version 2 (stride-free pair keys) changed what the
``pair_keys`` numbers *mean*, which the framing never interprets: the
regenerated fixtures differ from the version-1 ones in the version word
alone (:data:`V1_SHA256`).  Wire version 3 (a ``task`` is answered with
its ``partial``; ``merge`` and ``fetch`` are gone) changed which messages
exist, not how a frame is laid out: the ``.rclw`` fixtures differ from
the version-2 ones in the version word alone (:data:`V2_SHA256`).
Snapshot version 3 (the store writes each signed integer column at the
narrowest width that holds it and widens it back on load) changed what
:class:`~repro.serving.store.VerdictStore` puts in the array table, not
the framing: ``snapshot.rvs`` goes through ``encode_snapshot`` as it is,
so it too differs from its version-2 bytes in the version word alone.
Snapshot version 4 (pair rows store their source ids and scores, the
key and posteriors are derived on load) again changed only what the
store puts in the table: ``snapshot.rvs`` differs from its version-3
bytes in the version word alone (:data:`V3_SHA256`).  Snapshot version 5
(the labels hold each item row's truth label, not every value's) changed
only what the store puts in the meta: ``snapshot.rvs`` differs from its
version-4 bytes in the version word alone (:data:`V4_SHA256`).  Wire
version 4 (``CopyParams`` lost ``accuracy_clamp``, now a constant on
both ends) changed what a ``task`` ships, not the framing:
``world.rclw`` differs from its version-3 bytes in the version word
alone, and ``task.rclw`` re-encoded with the dropped key (at its old
default) and the old version word is its version-3 bytes exactly
(:data:`V3_SHA256`).
"""

from __future__ import annotations

import hashlib
import socket
import struct

import numpy as np
import pytest

from repro.cluster import ClusterError
from repro.cluster.wire import WIRE_VERSION, encode_message, recv_message
from repro.data.frames import align8, layout_arrays, view_arrays, write_arrays
from repro.serving import FORMAT_VERSION, ServingError, decode_snapshot, encode_snapshot
from tests.make_golden_frames import GOLDEN_DIR, golden_frames

GOLDEN = {path.name: path.read_bytes() for path in sorted(GOLDEN_DIR.iterdir())}

#: SHA-256 of the fixtures as committed at format/wire version 1 (927e39e).
V1_SHA256 = {
    "snapshot.rvs": "8cbd3ab0f31517cd87688fdc57e9a6669a0ca2d16cd1665daa67e21fb323c742",
    "task.rclw": "cb00aaddf32b8e5ce2d4fdf5aeb5854b4bd847ac182eeb7c489052302a3eb6eb",
    "world.rclw": "1d8c67f32d7e8eea5766d7c977de12346675b86af0e8e73104a8cd2465732d99",
}

#: SHA-256 of the fixtures as committed at format/wire version 2 (9ea0ebc).
V2_SHA256 = {
    "snapshot.rvs": "77b7d59cbdaf29c0e8398dbc745af03c0b4bcd9bdaa3f1ee030c2fd93235ff6c",
    "task.rclw": "2197677339eee056d570809d3be1d08abb0ea1e7b11252a6e4ec98d8394cbe1b",
    "world.rclw": "17e934d8244ad097388d6cd3dbbbc47e4cc182d381224b4568ae0763284d2f04",
}

#: SHA-256 of the fixtures as committed at format/wire version 3 (the
#: snapshot at d42eee6, the cluster frames at f2ddc4a).
V3_SHA256 = {
    "snapshot.rvs": "335f0663f47648ae5f56f5c838a7fa0d7cfbe1bb26877ea382f2b7f05a5d82b8",
    "task.rclw": "0bed48ec8531d3df66eb0b1301e6a4173e5a813c7513a9c32ee8213c9a47ea07",
    "world.rclw": "2038e33a4c6f2ebfe6e8b7047052d93a6e7a2061fa0177e3284f327388354c9b",
}

#: SHA-256 of the snapshot fixture as committed at format version 4 (37c34fa).
V4_SHA256 = {
    "snapshot.rvs": "762c595d76c28d82e2ec438310139752e7db2694d1bbcc3ccd5dbb4bb9873d01",
}

#: The version each fixture's format is at now.
CURRENT_VERSION = {"snapshot.rvs": 5, "task.rclw": 4, "world.rclw": 4}


def _decode(name: str, data: bytes):
    """Decode one golden (or damaged) frame the way its consumer would."""
    if name.endswith(".rvs"):
        return ("snapshot", *decode_snapshot(data, source=name))
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        return recv_message(right)
    finally:
        right.close()


def _encode(kind, meta, arrays) -> bytes:
    if kind == "snapshot":
        return encode_snapshot(meta, arrays)
    return encode_message(kind, meta, arrays)


def _before_wire_v4(name: str) -> bytes:
    """A fixture's bytes before wire version 4, but for the version word.

    Version 3's ``task`` params carried ``accuracy_clamp`` (default
    0.005, right after ``n``); every other fixture is unchanged.
    """
    if name != "task.rclw":
        return GOLDEN[name]
    kind, meta, arrays = _decode(name, GOLDEN[name])
    params = {}
    for key, value in meta["params"].items():
        params[key] = value
        if key == "n":
            params["accuracy_clamp"] = 0.005
    return _encode(kind, {**meta, "params": params}, arrays)


class TestGoldenBytes:
    def test_fixture_set(self):
        assert set(GOLDEN) == {"snapshot.rvs", "world.rclw", "task.rclw"}

    def test_encoders_still_write_the_golden_bytes(self):
        assert golden_frames() == GOLDEN

    def test_each_format_is_at_its_current_version(self):
        assert (FORMAT_VERSION, WIRE_VERSION) == (5, 4)
        for name, version in CURRENT_VERSION.items():
            assert struct.unpack_from("<4sI", GOLDEN[name])[1] == version, name

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_version_two_moved_the_version_word_only(self, name):
        as_v1 = _with_version(_before_wire_v4(name), 1)
        assert hashlib.sha256(as_v1).hexdigest() == V1_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_version_three_moved_the_version_word_only(self, name):
        """Each format's bump to version 3 moved its version word and
        nothing else."""
        as_v2 = _with_version(_before_wire_v4(name), 2)
        assert hashlib.sha256(as_v2).hexdigest() == V2_SHA256[name]

    @pytest.mark.parametrize("name", sorted(V3_SHA256))
    def test_version_four_moved_the_version_word_only(self, name):
        """Each format's bump to version 4 moved its version word and,
        for ``task.rclw``, dropped the params' ``accuracy_clamp``."""
        as_v3 = _with_version(_before_wire_v4(name), 3)
        assert hashlib.sha256(as_v3).hexdigest() == V3_SHA256[name]

    def test_wire_version_four_dropped_only_the_clamp(self):
        kind, meta, _ = _decode("task.rclw", GOLDEN["task.rclw"])
        assert kind == "task"
        assert list(meta["params"]) == ["alpha", "s", "n", "backend", "pair_layout"]

    @pytest.mark.parametrize("name", sorted(V4_SHA256))
    def test_version_five_moved_the_version_word_only(self, name):
        as_v4 = _with_version(GOLDEN[name], 4)
        assert hashlib.sha256(as_v4).hexdigest() == V4_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_decode_then_reencode_is_byte_identical(self, name):
        kind, meta, arrays = _decode(name, GOLDEN[name])
        assert arrays  # every fixture carries a payload
        assert all(not arr.flags.writeable for arr in arrays.values())
        assert _encode(kind, meta, arrays) == GOLDEN[name]

    def test_decoded_content(self):
        _, meta, arrays = _decode("snapshot.rvs", GOLDEN["snapshot.rvs"])
        assert meta["labels"] == ["S0", "S1", "S2", "S3"]
        assert arrays["pair_c_fwd"].tolist() == [5.0, -0.125, 1e-300]
        assert arrays["item_truth"].dtype == np.int64 and len(arrays["item_truth"]) == 0
        kind, meta, arrays = _decode("task.rclw", GOLDEN["task.rclw"])
        assert kind == "task" and meta["params"]["alpha"] == 0.2
        assert arrays["positions"].tolist() == [0, 2]


def _with_version(data: bytes, version: int) -> bytes:
    return data[:4] + struct.pack("<I", version) + data[8:]


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0xFF])


#: (fixture, damage, error type, pinned message fragment)
DAMAGE = [
    ("snapshot.rvs", lambda d: b"ZZZZ" + d[4:], ServingError, "not a verdict snapshot"),
    (
        "snapshot.rvs",
        lambda d: _with_version(d, FORMAT_VERSION + 1),
        ServingError,
        "newer than this build",
    ),
    (
        "snapshot.rvs",
        lambda d: _with_version(d, FORMAT_VERSION - 1),
        ServingError,
        "older than this build",
    ),
    ("snapshot.rvs", _flip_last_byte, ServingError, "checksum"),
    ("snapshot.rvs", lambda d: d[:-20], ServingError, "truncated"),
    ("snapshot.rvs", lambda d: d[:7], ServingError, "truncated"),
    ("world.rclw", lambda d: b"XXXX" + d[4:], ClusterError, "magic"),
    (
        "world.rclw",
        lambda d: _with_version(d, WIRE_VERSION + 1),
        ClusterError,
        "version",
    ),
    (
        "world.rclw",
        lambda d: _with_version(d, WIRE_VERSION - 1),
        ClusterError,
        "older",
    ),
    ("world.rclw", _flip_last_byte, ClusterError, "checksum"),
    ("task.rclw", lambda d: d[:-3], ClusterError, "closed mid-frame"),
    (
        "task.rclw",
        lambda d: d[:8] + struct.pack("<I", 1 << 30) + d[12:],
        ClusterError,
        "corrupted",
    ),
]


class TestErrorContract:
    @pytest.mark.parametrize(
        "name, damage, error, fragment",
        DAMAGE,
        ids=[f"{name}-{fragment}" for name, _, _, fragment in DAMAGE],
    )
    def test_damage_raises_the_formats_own_error(self, name, damage, error, fragment):
        with pytest.raises(error, match=fragment):
            _decode(name, damage(GOLDEN[name]))

    @pytest.mark.parametrize(
        "name, current, error, remedy",
        [
            ("snapshot.rvs", FORMAT_VERSION, ServingError, "re-publish the store"),
            ("world.rclw", WIRE_VERSION, ClusterError, "restart the peer"),
        ],
    )
    def test_an_older_version_is_refused_naming_both_and_the_remedy(
        self, name, current, error, remedy
    ):
        """No older version is decoded (a v1 ``pair_keys`` column would be
        silently misread as v2 keys): the error names the frame's version,
        the build's, and what to do."""
        message = (
            rf"version {current - 1} is older than this build reads "
            rf"\(version {current}\); {remedy}"
        )
        with pytest.raises(error, match=message):
            _decode(name, _with_version(GOLDEN[name], current - 1))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_header_damage_never_leaks_a_codec_traceback(self, name):
        """Every single-byte flip inside the JSON header — which the CRC
        does not cover — decodes or raises the format's error, nothing else."""
        data = GOLDEN[name]
        error = ServingError if name.endswith(".rvs") else ClusterError
        header_len = struct.unpack_from("<4sII", data)[2]
        for pos in range(12, 12 + header_len):
            damaged = data[:pos] + bytes([data[pos] ^ 0x10]) + data[pos + 1 :]
            try:
                _decode(name, damaged)
            except error:
                pass


class TestArrayBlocks:
    ARRAYS = {
        "flags": np.array([1, 0, 1], dtype=np.uint8),
        "scores": np.array([0.5, -2.0]),
        "empty": np.empty(0, dtype=np.int64),
        "keys": np.arange(5, dtype=np.int64),
    }

    def test_layout_is_eight_aligned_and_in_order(self):
        table, end = layout_arrays(self.ARRAYS)
        assert [row[0] for row in table] == list(self.ARRAYS)
        assert table == [
            ("flags", "|u1", 0, 3),
            ("scores", "<f8", 8, 2),
            ("empty", "<i8", 24, 0),
            ("keys", "<i8", 24, 5),
        ]
        assert end == 64
        assert [align8(n) for n in (0, 1, 8, 9)] == [0, 8, 8, 16]

    def test_write_then_view_roundtrips_through_any_buffer(self):
        table, end = layout_arrays(self.ARRAYS)
        buffer = bytearray(end)
        write_arrays(buffer, table, self.ARRAYS)
        views = view_arrays(buffer, table)
        for name, arr in self.ARRAYS.items():
            assert views[name].dtype == arr.dtype
            assert np.array_equal(views[name], arr)
        # Views alias the buffer: writable exactly when it is.
        views["keys"][0] = 99
        assert view_arrays(bytes(buffer), table)["keys"][0] == 99
        assert not view_arrays(bytes(buffer), table)["keys"].flags.writeable

    def test_a_table_that_overruns_the_buffer_is_rejected(self):
        with pytest.raises(ValueError):
            view_arrays(bytes(8), [("keys", "<i8", 0, 2)])
