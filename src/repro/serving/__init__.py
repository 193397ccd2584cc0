"""Verdict-serving layer: persisted snapshots + read-heavy query API.

The detection/fusion pipeline *produces* verdicts; this package serves
them.  Three pieces:

* :mod:`~repro.serving.codec` — the versioned binary snapshot format
  (CRC-checked, refuses newer versions with :class:`ServingError`);
* :mod:`~repro.serving.store` — :class:`VerdictStore` (a directory of
  immutable snapshots + atomic ``CURRENT`` pointer, full or delta) and
  :class:`SnapshotPublisher` (one snapshot per fusion round, deltas
  against the state it last published);
* :mod:`~repro.serving.reader` — :class:`VerdictReader`, the LRU-cached
  ``get_verdict`` / ``get_truth`` / ``top_copiers`` API that stays
  consistent under concurrent refresh.

Wire-in points: ``run_fusion(..., snapshot_store=...)`` publishes per
round; the CLI round-trips via ``repro fuse --store DIR`` and
``repro query``.
"""

from .codec import (
    FORMAT_VERSION,
    MAGIC,
    ServingError,
    decode_snapshot,
    encode_snapshot,
    read_snapshot_file,
)
from .reader import TopCopier, Truth, Verdict, VerdictReader
from .store import (
    FLAG_COPYING,
    FLAG_EARLY,
    ItemRows,
    SnapshotPublisher,
    VerdictStore,
    copier_totals,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "ServingError",
    "decode_snapshot",
    "encode_snapshot",
    "read_snapshot_file",
    "Verdict",
    "Truth",
    "TopCopier",
    "VerdictReader",
    "VerdictStore",
    "SnapshotPublisher",
    "ItemRows",
    "FLAG_COPYING",
    "FLAG_EARLY",
    "copier_totals",
]
