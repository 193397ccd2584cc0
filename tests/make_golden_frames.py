"""Golden-bytes builder for the two binary formats (and its regen entry point).

``tests/data/golden_frames/`` freezes one tiny verdict snapshot
(``snapshot.rvs``) and two cluster frames (``world.rclw``, ``task.rclw``)
exactly as the public encoders wrote them at commit 465d2c0 — the last
one where ``serving/codec.py`` and ``cluster/wire.py`` each carried their
own framing — and since regenerated four times, each time moving the
4-byte version word and nothing else: for version 2 of both formats
(stride-free pair keys), for wire version 3 (a ``task`` is answered
with its ``partial``), for snapshot version 3 (the store's narrow
integer columns, which ``encode_snapshot`` itself does not apply), and
for snapshot version 4 (the store's derived pair columns, likewise
applied above ``encode_snapshot``).
``tests/test_frames.py`` decodes them with the shared framing module and
re-encodes them byte for byte, so neither on-disk nor on-wire format can
drift without a ``FORMAT_VERSION``/``WIRE_VERSION`` bump.

Regenerate (only together with such a bump)::

    PYTHONPATH=src:. python tests/make_golden_frames.py
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.cluster.wire import encode_message
from repro.core import CopyParams
from repro.serving import encode_snapshot

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_frames"


def golden_frames() -> dict[str, bytes]:
    """File name -> frame bytes, built through the public encoders."""
    # Odd lengths and mixed dtypes, so the 8-byte alignment padding
    # between arrays and after the header is actually exercised.
    world = {
        "probs": np.array([0.25, 0.5, 1.0 / 3.0]),
        "main": np.array([1, 0, 1], dtype=np.uint8),
        "offsets": np.array([0, 2, 4, 7], dtype=np.int64),
        "providers": np.array([0, 1, 0, 2, 0, 1, 2], dtype=np.int64),
        "accuracies": np.array([0.8, 0.6, 0.95]),
    }
    return {
        "snapshot.rvs": encode_snapshot(
            {
                "snapshot_id": 3,
                "kind": "delta",
                "base_id": 2,
                "n_sources": 4,
                "labels": ["S0", "S1", "S2", "S3"],
            },
            {
                "pair_keys": np.array([1, 6, 11], dtype=np.int64),
                "pair_c_fwd": np.array([5.0, -0.125, 1e-300]),
                "pair_flags": np.array([1, 0, 3], dtype=np.uint8),
                "item_truth": np.empty(0, dtype=np.int64),
            },
        ),
        "world.rclw": encode_message(
            "world", {"session": "sess-0123456789ab", "n_sources": 3}, world
        ),
        "task.rclw": encode_message(
            "task",
            {
                "session": "sess-0123456789ab",
                "task": "r1.t0",
                "params": asdict(CopyParams(alpha=0.2, s=0.7, n=10)),
            },
            {"positions": np.array([0, 2], dtype=np.int64)},
        ),
    }


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, data in golden_frames().items():
        (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
