"""Core data model: sources, data items, and the claims that connect them.

The copy-detection literature (Dong et al. 2009, Li et al. 2015) works on a
simple relational abstraction: a domain of *data items* (e.g. "capital of
NJ", "closing price of AAPL on 7/7"), a set of *sources*, and for each
source a partial mapping from items to *values*.  Schema mapping and entity
resolution are assumed done, so item identity is shared across sources.

This module provides :class:`Dataset`, an immutable, integer-interned
representation of that abstraction, plus :class:`DatasetBuilder` for
constructing one incrementally.  All algorithms in :mod:`repro.core`
operate on integer source/item/value ids for speed; the string names are
kept for presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columns import ClaimColumns


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a dataset, matching the columns of Table V.

    Attributes:
        n_sources: number of sources (``#Srcs``).
        n_items: number of distinct data items claimed by at least one
            source (``#Items``).
        n_distinct_values: number of distinct ``(item, value)`` pairs
            (``#Dist-values``).
        n_index_entries: number of ``(item, value)`` pairs provided by at
            least two sources, i.e. the size of the inverted index
            (``#Index-entries``).
        n_claims: total number of ``(source, item, value)`` triples.
        avg_conflicts_per_item: average number of distinct values per item.
    """

    n_sources: int
    n_items: int
    n_distinct_values: int
    n_index_entries: int
    n_claims: int
    avg_conflicts_per_item: float


class Dataset:
    """An immutable collection of claims ``source -> (item -> value)``.

    Values are interned globally: each distinct ``(item, value-string)``
    pair receives a unique integer *value id*.  Two sources provide "the
    same value" for an item exactly when their claims for that item map to
    the same value id.

    Instances should be created through :class:`DatasetBuilder` or the
    helpers in :mod:`repro.synth`.
    """

    __slots__ = (
        "source_names",
        "item_names",
        "claims",
        "value_item",
        "value_label",
        "_providers",
        "_items_per_source",
        "_columns",
    )

    def __init__(
        self,
        source_names: Sequence[str],
        item_names: Sequence[str],
        claims: Sequence[Mapping[int, int]],
        value_item: Sequence[int],
        value_label: Sequence[str],
    ):
        if len(claims) != len(source_names):
            raise ValueError(
                "claims must have one mapping per source "
                f"({len(claims)} != {len(source_names)})"
            )
        self.source_names = list(source_names)
        self.item_names = list(item_names)
        self.claims = [dict(c) for c in claims]
        self.value_item = list(value_item)
        self.value_label = list(value_label)
        self._providers: list[list[int]] | None = None
        self._items_per_source: list[int] | None = None
        self._columns: "ClaimColumns" | None = None

    # ------------------------------------------------------------------
    # Basic dimensions
    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of sources."""
        return len(self.source_names)

    @property
    def n_items(self) -> int:
        """Number of data items."""
        return len(self.item_names)

    @property
    def n_values(self) -> int:
        """Number of distinct ``(item, value)`` pairs."""
        return len(self.value_item)

    # ------------------------------------------------------------------
    # Derived structures (computed lazily, cached)
    # ------------------------------------------------------------------
    @property
    def providers(self) -> list[list[int]]:
        """For each value id, the sorted list of source ids providing it."""
        if self._providers is None:
            providers: list[list[int]] = [[] for _ in range(self.n_values)]
            for source_id, claim in enumerate(self.claims):
                for value_id in claim.values():
                    providers[value_id].append(source_id)
            for lst in providers:
                lst.sort()
            self._providers = providers
        return self._providers

    @property
    def items_per_source(self) -> list[int]:
        """``|D-bar(S)|`` — the number of items each source provides."""
        if self._items_per_source is None:
            self._items_per_source = [len(c) for c in self.claims]
        return self._items_per_source

    @property
    def columns(self) -> "ClaimColumns":
        """The claims as one read-only columnar table (imports NumPy).

        What every NumPy path gathers from instead of walking ``claims``
        or ``providers``; see :class:`~repro.data.columns.ClaimColumns`.
        """
        if self._columns is None:
            from .columns import ClaimColumns

            self._columns = ClaimColumns(self)
        return self._columns

    def values_of_item(self, item_id: int) -> list[int]:
        """Return the distinct value ids observed for ``item_id``."""
        return [
            value_id
            for value_id in range(self.n_values)
            if self.value_item[value_id] == item_id
        ]

    def item_value_table(self) -> list[list[int]]:
        """Return, for each item id, the list of its observed value ids."""
        table: list[list[int]] = [[] for _ in range(self.n_items)]
        for value_id, item_id in enumerate(self.value_item):
            table[item_id].append(value_id)
        return table

    def iter_claims(self) -> Iterator[tuple[int, int, int]]:
        """Yield all claims as ``(source_id, item_id, value_id)`` triples."""
        for source_id, claim in enumerate(self.claims):
            for item_id, value_id in claim.items():
                yield source_id, item_id, value_id

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> DatasetStats:
        """Compute the Table V summary statistics for this dataset."""
        n_claims = sum(len(c) for c in self.claims)
        n_multi = sum(1 for p in self.providers if len(p) >= 2)
        items_claimed = {i for c in self.claims for i in c}
        values_per_item: dict[int, int] = {}
        for item_id in self.value_item:
            values_per_item[item_id] = values_per_item.get(item_id, 0) + 1
        avg_conflicts = (
            sum(values_per_item.values()) / len(values_per_item)
            if values_per_item
            else 0.0
        )
        return DatasetStats(
            n_sources=self.n_sources,
            n_items=len(items_claimed),
            n_distinct_values=self.n_values,
            n_index_entries=n_multi,
            n_claims=n_claims,
            avg_conflicts_per_item=avg_conflicts,
        )

    # ------------------------------------------------------------------
    # Projection (used by the sampling strategies)
    # ------------------------------------------------------------------
    def project_items(self, item_ids: Iterable[int]) -> "Dataset":
        """Return a new dataset restricted to the given item ids.

        Item and value ids are re-interned densely; source ids and names
        are preserved (a source that loses all its items keeps an empty
        claim set so that source indices remain aligned with the parent
        dataset — the sampling experiments compare decisions per source
        pair across the original and the sample).
        """
        keep = set(item_ids)
        builder = DatasetBuilder()
        for name in self.source_names:
            builder.ensure_source(name)
        for source_id, claim in enumerate(self.claims):
            source_name = self.source_names[source_id]
            for item_id, value_id in claim.items():
                if item_id in keep:
                    builder.add(
                        source_name,
                        self.item_names[item_id],
                        self.value_label[value_id],
                    )
        return builder.build()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(sources={self.n_sources}, items={self.n_items}, "
            f"values={self.n_values})"
        )


@dataclass
class DatasetBuilder:
    """Incremental constructor for :class:`Dataset`.

    Example:
        >>> b = DatasetBuilder()
        >>> b.add("S0", "NJ", "Trenton")
        >>> b.add("S1", "NJ", "Trenton")
        >>> ds = b.build()
        >>> ds.n_sources, ds.n_items, ds.n_values
        (2, 1, 1)
    """

    _source_ids: dict[str, int] = field(default_factory=dict)
    _item_ids: dict[str, int] = field(default_factory=dict)
    _value_ids: dict[tuple[int, str], int] = field(default_factory=dict)
    _claims: list[dict[int, int]] = field(default_factory=list)
    _value_item: list[int] = field(default_factory=list)
    _value_label: list[str] = field(default_factory=list)

    def ensure_source(self, source: str) -> int:
        """Register a source (possibly with no claims) and return its id."""
        source_id = self._source_ids.get(source)
        if source_id is None:
            source_id = len(self._source_ids)
            self._source_ids[source] = source_id
            self._claims.append({})
        return source_id

    def ensure_item(self, item: str) -> int:
        """Register an item and return its id."""
        item_id = self._item_ids.get(item)
        if item_id is None:
            item_id = len(self._item_ids)
            self._item_ids[item] = item_id
        return item_id

    def add(self, source: str, item: str, value: str) -> None:
        """Record that ``source`` claims ``value`` for ``item``.

        A source may claim at most one value per item; a second claim for
        the same item overwrites the first (last-writer-wins), mirroring
        how the crawled datasets were de-duplicated.
        """
        source_id = self.ensure_source(source)
        item_id = self.ensure_item(item)
        key = (item_id, value)
        value_id = self._value_ids.get(key)
        if value_id is None:
            value_id = len(self._value_ids)
            self._value_ids[key] = value_id
            self._value_item.append(item_id)
            self._value_label.append(value)
        self._claims[source_id][item_id] = value_id

    def build(self) -> Dataset:
        """Freeze the builder into a :class:`Dataset`."""
        return Dataset(
            source_names=list(self._source_ids),
            item_names=list(self._item_ids),
            claims=self._claims,
            value_item=self._value_item,
            value_label=self._value_label,
        )
