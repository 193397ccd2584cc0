"""Claim deltas and the append-only ledger behind the streaming service.

The batch pipeline consumes an immutable :class:`~repro.data.Dataset`
built once; a long-running service instead receives a continuous feed of
**claim deltas** — "source S now claims value V for item I".  This module
provides the intake layer between the two worlds:

* :class:`ClaimDelta` — one immutable re-report, in the same
  ``(source, item, value)`` string vocabulary as
  :meth:`DatasetBuilder.add` (last-writer-wins per ``(source, item)``).
* :class:`ClaimLedger` — the accumulated claim state.  ``apply()`` folds
  a batch of deltas in and reports exactly what changed;
  ``snapshot()`` freezes the current state into a :class:`Dataset`;
  ``fork()`` is the private copy a speculative epoch folds into.

**Determinism contract.**  The ledger interns sources, items and values
append-only, in first-appearance order — byte-for-byte the same rule as
:class:`~repro.data.dataset.DatasetBuilder`.  Feeding the same deltas in
the same order therefore yields the *identical* ``Dataset`` (same ids,
same iteration order) whether they arrive through a live
:class:`~repro.streaming.StreamingService`, a synchronous
:func:`~repro.streaming.replay_epochs` call, or one big
``DatasetBuilder`` pass.  This is the foundation of the streamed-vs-batch
lockstep parity the test suite asserts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dataset import Dataset, DatasetBuilder


@dataclass(frozen=True)
class ClaimDelta:
    """One streamed re-report: ``source`` now claims ``value`` for ``item``.

    Attributes:
        source: source name (interned on first appearance).
        item: data-item name.
        value: the claimed value string.  A repeated ``(source, item)``
            overwrites the previous claim (last-writer-wins), exactly
            like :meth:`DatasetBuilder.add`.
    """

    source: str
    item: str
    value: str

    @classmethod
    def from_json(cls, obj: dict) -> "ClaimDelta":
        """Build a delta from a ``{"source", "item", "value"}`` mapping.

        Raises:
            ValueError: when a field is missing or not a string.
        """
        try:
            source, item, value = obj["source"], obj["item"], obj["value"]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"a claim needs source/item/value fields, got {obj!r}"
            ) from exc
        if not all(isinstance(x, str) for x in (source, item, value)):
            raise ValueError(f"claim fields must be strings, got {obj!r}")
        return cls(source=source, item=item, value=value)

    def to_json(self) -> dict:
        """The wire form consumed by :meth:`from_json`."""
        return {"source": self.source, "item": self.item, "value": self.value}


@dataclass(frozen=True)
class LedgerUpdate:
    """What one :meth:`ClaimLedger.apply` batch actually changed.

    Attributes:
        n_deltas: deltas in the batch (after the caller's coalescing).
        changed_claims: claims that are new or whose value flipped —
            the batch's *effective* size.  Zero means the batch was pure
            confirmation and detection state is provably unchanged.
        confirmations: deltas that restated the existing claim verbatim.
        new_sources: sources first seen in this batch.
        new_items: items first seen in this batch.
        new_values: distinct ``(item, value)`` pairs first seen.
    """

    n_deltas: int
    changed_claims: int
    confirmations: int
    new_sources: int
    new_items: int
    new_values: int

    @property
    def is_noop(self) -> bool:
        """True when the batch cannot have moved any verdict or truth."""
        return self.changed_claims == 0 and self.new_sources == 0


class ClaimLedger:
    """Append-only accumulation of claims with stable interning.

    The ledger wraps a :class:`DatasetBuilder` and adds the two things a
    long-running service needs: per-batch change accounting
    (:class:`LedgerUpdate`) and a monotonically increasing ``version``
    that advances only when a batch changed something.
    """

    def __init__(self):
        self._builder = DatasetBuilder()
        self._version = 0
        self._snapshot: Dataset | None = None
        self._snapshot_version = -1
        #: Sources whose claim dict this ledger has copied since its last
        #: :meth:`fork`; any other may be shared with a fork.
        self._owned: set[int] = set()

    @property
    def version(self) -> int:
        """Monotone claim-state version; bumps once per effective batch."""
        return self._version

    def apply(self, deltas: Iterable[ClaimDelta]) -> LedgerUpdate:
        """Fold a batch of deltas into the ledger, in order.

        Returns the batch's :class:`LedgerUpdate`; the ledger ``version``
        advances exactly when the update is not a no-op.
        """
        builder, owned = self._builder, self._owned
        n = changed = confirmed = new_sources = new_items = new_values = 0
        for delta in deltas:
            n += 1
            if delta.source not in builder._source_ids:
                new_sources += 1
            if delta.item not in builder._item_ids:
                new_items += 1
            source_id = builder.ensure_source(delta.source)
            if source_id not in owned:  # copy-on-write: a fork may share it
                builder._claims[source_id] = dict(builder._claims[source_id])
                owned.add(source_id)
            item_id = builder.ensure_item(delta.item)
            value_key = (item_id, delta.value)
            is_new_value = value_key not in builder._value_ids
            old = builder._claims[source_id].get(item_id)
            builder.add(delta.source, delta.item, delta.value)
            if is_new_value:
                new_values += 1
            if old is not None and builder._claims[source_id][item_id] == old:
                confirmed += 1
            else:
                changed += 1
        update = LedgerUpdate(
            n_deltas=n,
            changed_claims=changed,
            confirmations=confirmed,
            new_sources=new_sources,
            new_items=new_items,
            new_values=new_values,
        )
        if not update.is_noop:
            self._version += 1
        return update

    def fork(self) -> "ClaimLedger":
        """A private copy to fold a batch into; this ledger stays as it is.

        The fork starts at this ledger's version with its cached
        snapshot, so a fork that no batch changed returns the very same
        ``Dataset`` object.  It copies the interning tables but shares
        the per-source claim dicts: whichever of the two ledgers next
        writes a source copies that source's dict first, so a fork costs
        the sources a batch touches, not the whole ledger.
        """
        builder, fork = self._builder, copy.copy(self)
        fork._builder = DatasetBuilder(
            dict(builder._source_ids),
            dict(builder._item_ids),
            dict(builder._value_ids),
            list(builder._claims),
            list(builder._value_item),
            list(builder._value_label),
        )
        self._owned, fork._owned = set(), set()
        return fork

    def snapshot(self) -> Dataset:
        """Freeze the current claim state into an immutable ``Dataset``.

        Snapshots are cached per version, so repeated calls between
        batches are free and return the *same object* — which is what
        lets dataset-keyed caches (shared-item counts, workspaces)
        recognise an unchanged world.
        """
        if self._snapshot is None or self._snapshot_version != self._version:
            self._snapshot = self._builder.build()
            self._snapshot_version = self._version
        return self._snapshot

    def __len__(self) -> int:
        """Total number of live ``(source, item)`` claims."""
        return sum(len(c) for c in self._builder._claims)


def coalesce_deltas(deltas: Sequence[ClaimDelta]) -> list[ClaimDelta]:
    """Collapse a burst to one delta per ``(source, item)``.

    Keeps the **first** arrival position (so interning order — and with
    it the lockstep parity contract — is insensitive to how many times a
    bursty feed re-sent the claim) with the **last** value
    (last-writer-wins).  The micro-batcher applies this to every epoch
    before handing it to the engine.
    """
    out: list[ClaimDelta] = []
    position: dict[tuple[str, str], int] = {}
    for delta in deltas:
        key = (delta.source, delta.item)
        at = position.get(key)
        if at is None:
            position[key] = len(out)
            out.append(delta)
        elif out[at].value != delta.value:
            out[at] = delta
    return out
