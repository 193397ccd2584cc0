"""Detection results and the cost instrumentation shared by all detectors.

The paper measures efficiency in two ways: wall-clock time and the *number
of computations* (illustrated in Examples 3.6, 4.2 and 5.4).  We follow
the paper's accounting, implemented uniformly in :class:`CostCounter`:

* +1 per directional per-pair score update (a shared value touches a pair
  twice — once for ``C->`` and once for ``C<-``);
* +1 per lower-bound (``C^min``) evaluation and +1 per upper-bound
  (``C^max``) evaluation of a pair at an entry;
* +2 per considered pair for the final different-value adjustment
  (``ln(1-s) * (l - n)`` applied to both directions).

Under this convention PAIRWISE performs ``2 * (shared items over pairs)``
computations and INDEX performs ``2 * (shared-value incidences) +
2 * (pairs considered)``, matching the worked numbers in Example 3.6
(366 vs 154 on the motivating example).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

import numpy as np

from .contribution import CopyPosterior
from .pairspace import decode_pairs, encode_pairs, iter_pairs, key_row


class PairNotObservedError(LookupError):
    """A queried pair was never opened by the detection run.

    Pairs can be absent from ``DetectionResult.decisions`` by design —
    they share no value outside the index tail (or no item at all), or a
    sparse ``pair_layout`` never allocated them a slot.  Code that needs
    a verdict for such a pair must not surface a raw ``KeyError`` /
    ``IndexError`` from dict or slot decode; it raises this instead,
    naming the pair.  Subclasses :class:`LookupError`, so existing
    ``except KeyError``-adjacent handling still has a sane hook.
    """

    def __init__(self, s1: int, s2: int, method: str | None = None):
        origin = f" by the {method} run" if method else ""
        super().__init__(
            f"pair ({s1}, {s2}) was never observed{origin}: the sources "
            f"share no scored value, so no verdict was computed (the pair "
            f"is independent by construction)"
        )
        self.pair = (s1, s2) if s1 < s2 else (s2, s1)


@dataclass
class CostCounter:
    """Mutable cost tally threaded through a detector run."""

    computations: int = 0
    values_examined: int = 0
    pairs_considered: int = 0

    def score_update(self, n: int = 2) -> None:
        """Record directional score updates (default: both directions)."""
        self.computations += n

    def value_incidence(self) -> None:
        """Record one (pair, shared value) incidence examined."""
        self.values_examined += 1


@dataclass(frozen=True)
class PairDecision:
    """Final verdict for one source pair ``(s1, s2)`` with ``s1 < s2``.

    Attributes:
        c_fwd: accumulated ``C(s1 -> s2)`` (may be a bound if ``early``).
        c_bwd: accumulated ``C(s1 <- s2)``.
        posterior: three-way posterior derived from the scores.
        copying: the binary decision (``Pr(independent) <= 0.5``).
        early: True when the verdict came from a Section IV bound rather
            than an exhaustive accumulation.
    """

    c_fwd: float
    c_bwd: float
    posterior: CopyPosterior
    copying: bool
    early: bool = False


#: Float columns of a :class:`PairColumns` table, in storage order.
PAIR_FLOAT_COLUMNS = ("c_fwd", "c_bwd", "independent", "forward", "backward")

#: The :class:`PairDecision` columns, in field order.
_VALUE_COLUMNS = PAIR_FLOAT_COLUMNS + ("copying", "early")

#: Every per-pair column but the key, in field order — what a snapshot
#: stores per pair and what the store's delta compares.
PAIR_COLUMNS = _VALUE_COLUMNS + ("decision_pos",)


@dataclass
class PairColumns:
    """The per-pair verdict table in columnar layout, sorted by key.

    The one shape verdicts travel in from the kernels through fusion to
    the snapshot files and back into a reader: row ``i`` is the
    :class:`PairDecision` of the pair ``keys[i]`` (``s1 < s2``, the int64
    key codec of :mod:`repro.core.pairspace`) plus the index position
    where that verdict was reached.

    Attributes:
        keys: int64 pair keys, sorted ascending, unique.
        c_fwd: accumulated ``C(s1 -> s2)`` per pair.
        c_bwd: accumulated ``C(s1 <- s2)`` per pair.
        independent: ``Pr(s1 _|_ s2 | Phi)``.
        forward: ``Pr(s1 -> s2 | Phi)``.
        backward: ``Pr(s1 <- s2 | Phi)``.
        copying: the binary decision (bool).
        early: True where the verdict came from a Section IV bound (bool).
        decision_pos: int64 index position where the verdict was reached
            (:class:`~repro.core.bound.PairBookkeeping`), filled by a
            producer that tracks INCREMENTAL's bookkeeping; -1 =
            untracked, which is what omitting the column gives every row.
    """

    keys: np.ndarray
    c_fwd: np.ndarray
    c_bwd: np.ndarray
    independent: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    copying: np.ndarray
    early: np.ndarray
    decision_pos: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.decision_pos is None:
            self.decision_pos = np.full(len(self.keys), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_decisions(
        cls,
        decisions: Mapping[tuple[int, int], "PairDecision"],
        positions: Mapping[tuple[int, int], int] | None = None,
    ) -> "PairColumns":
        """Columnarize a ``pair -> PairDecision`` mapping (one pass).

        Only the public :class:`PairDecision` fields are read, so a
        dict-backed result and a columnar one holding the same verdicts
        yield array-identical tables.  ``positions`` is the python
        reference's ``pair -> decision position`` dict; a pair it does
        not book stays at -1.  An empty mapping gives the zero-row table.
        """
        n_rows = len(decisions)
        keys = encode_pairs(decisions)
        decision_pos = np.fromiter(
            map((positions or {}).get, decisions, repeat(-1)),
            dtype=np.int64,
            count=n_rows,
        )
        table = np.array(
            [
                (d.c_fwd, d.c_bwd, *d.posterior, d.copying, d.early)
                for d in decisions.values()
            ],
            dtype=np.float64,
        ).reshape(n_rows, 7)
        order = np.argsort(keys, kind="stable")
        table = table[order].T
        return cls(
            keys[order],
            *(np.ascontiguousarray(column) for column in table[:5]),
            table[5] != 0.0,
            table[6] != 0.0,
            decision_pos[order],
        )

    def take(self, rows: np.ndarray) -> "PairColumns":
        """The table restricted to ``rows`` (an ascending index or mask)."""
        return PairColumns(
            self.keys[rows],
            *(getattr(self, name)[rows] for name in PAIR_COLUMNS),
        )


class DecisionView(Mapping):
    """Read-only ``(s1, s2) -> PairDecision`` mapping over a column table.

    What :attr:`DetectionResult.decisions` is when a numpy kernel
    produced the result.  Length, membership and key iteration (in
    ascending key order) read the columns only; a :class:`PairDecision`
    is built — and memoised, so repeated reads return the same object —
    the first time ``[]``/``get``/``values()``/``items()`` asks for it.

    Out-of-range ids are reported missing, never answered with an
    aliased neighbour's verdict (see :func:`~repro.core.pairspace.key_row`).
    """

    def __init__(self, columns: PairColumns):
        self.columns = columns
        self._built: dict[int, PairDecision] = {}

    @property
    def materialized(self) -> int:
        """How many :class:`PairDecision` objects this view has built."""
        return len(self._built)

    def _build(self, start: int, stop: int) -> None:
        """Materialise the not-yet-built decisions of rows ``[start, stop)``."""
        cols = self.columns
        rows = zip(
            *(getattr(cols, name)[start:stop].tolist() for name in _VALUE_COLUMNS)
        )
        for row, (c_fwd, c_bwd, ind, fwd, bwd, copying, early) in enumerate(rows, start):
            if row not in self._built:
                self._built[row] = PairDecision(
                    c_fwd, c_bwd, CopyPosterior(ind, fwd, bwd), copying, early
                )

    def __getitem__(self, key) -> PairDecision:
        row = key_row(self.columns.keys, key)
        if row < 0:
            raise KeyError(key)
        if row not in self._built:
            self._build(row, row + 1)
        return self._built[row]

    def __contains__(self, key) -> bool:
        return key_row(self.columns.keys, key) >= 0

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter_pairs(self.columns.keys)

    def values(self) -> list[PairDecision]:
        """Every decision, in key order (builds the ones not yet read)."""
        if len(self._built) < len(self):
            self._build(0, len(self))
        return [self._built[row] for row in range(len(self))]

    def items(self) -> list[tuple[tuple[int, int], PairDecision]]:
        """``(pair, decision)`` for every row, in key order."""
        return list(zip(self, self.values()))

    def __eq__(self, other) -> bool:
        mine = self.columns
        if isinstance(other, DecisionView):
            return all(
                np.array_equal(getattr(mine, name), getattr(other.columns, name))
                for name in ("keys",) + _VALUE_COLUMNS
            )
        return Mapping.__eq__(self, other)

    def __reduce__(self):
        return DecisionView, (self.columns,)

    def __repr__(self) -> str:
        return f"DecisionView({len(self)} pairs, {self.materialized} materialized)"


class PairRowView(Mapping):
    """Read-only ``(s1, s2) -> row object`` mapping over key-sorted columns.

    How the numpy backend's per-pair INCREMENTAL state stays readable
    without being built: :attr:`~repro.core.bound.ScanOutcome.bookkeeping`
    and the columnar state's ``records()`` are views of this kind.
    ``make_row(*values)`` receives one Python value per column, in
    ``columns`` order, and is called only when a row is read — the
    product path reads :attr:`columns` and never calls it.

    Attributes:
        keys: int64 pair keys, sorted ascending, unique.
        columns: ``name -> array`` aligned with ``keys``.
    """

    def __init__(self, keys: np.ndarray, columns: dict, make_row):
        self.keys = keys
        self.columns = columns
        self._make_row = make_row

    def __getitem__(self, pair):
        row = key_row(self.keys, pair)
        if row < 0:
            raise KeyError(pair)
        return self._make_row(*(col[row].item() for col in self.columns.values()))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter_pairs(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def values(self) -> list:
        """Every row object, in key order."""
        return list(
            map(self._make_row, *(col.tolist() for col in self.columns.values()))
        )

    def items(self) -> list:
        """``(pair, row object)`` for every row, in key order."""
        return list(zip(self, self.values()))


@dataclass
class DetectionResult:
    """Outcome of one copy-detection pass over a dataset.

    Pairs absent from ``decisions`` were never opened — they share no
    value outside the index tail (or no item at all) and are independent.

    Attributes:
        method: name of the algorithm that produced the result.
        n_sources: number of sources in the dataset.
        decisions: per-pair verdicts keyed by sorted source-id pairs —
            a read-only :class:`DecisionView` over the kernel's column
            table under ``backend="numpy"`` (INCREMENTAL's patch rounds
            included), a plain dict from the python reference.
            Treat it as frozen either way; bulk consumers read
            :meth:`columns` instead of walking it.
        cost: the computation/incidence tally.
        elapsed_seconds: wall-clock detection time (filled by callers that
            time the run; 0.0 otherwise).
        changed_pairs: when the producer knows which pairs it actually
            re-resolved this round (INCREMENTAL's pass-2/pass-3 pairs,
            straight from the bookkeeping), the set of their keys; None
            means "unknown — assume anything may have changed".  Pairs
            re-confirmed by pass 1 are deliberately *excluded*: their
            verdict stands and their pass-1 scores are pessimistic
            estimates, so downstream consumers (the serving layer's delta
            publisher) keep the previous exact scores instead.
        decision_pos: ``pair -> index position where its verdict was
            reached``, attached by the python reference when it tracks
            INCREMENTAL's bookkeeping so :meth:`columns` can fill the
            ``decision_pos`` column; None when untracked, and always
            under numpy, whose kernels write that column themselves.
    """

    method: str
    n_sources: int
    decisions: Mapping[tuple[int, int], PairDecision] = field(default_factory=dict)
    cost: CostCounter = field(default_factory=CostCounter)
    elapsed_seconds: float = 0.0
    changed_pairs: set[tuple[int, int]] | None = None
    decision_pos: Mapping[tuple[int, int], int] | None = field(
        default=None, repr=False, compare=False
    )
    _columns: PairColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def columns(self) -> PairColumns:
        """The verdicts as one sorted-key column table.

        Free when a numpy kernel produced the result (it *is* the table
        behind :attr:`decisions`); built from the dict once, and cached,
        otherwise.  Fusion and the snapshot publisher read only this.
        """
        if isinstance(self.decisions, DecisionView):
            return self.decisions.columns
        if self._columns is None:
            self._columns = PairColumns.from_decisions(
                self.decisions, self.decision_pos
            )
        return self._columns

    def copying_pairs(self) -> set[tuple[int, int]]:
        """The set of pairs judged to be copying (either direction)."""
        cols = self.columns()
        return set(decode_pairs(cols.keys[cols.copying]))

    def decision_for(self, s1: int, s2: int) -> PairDecision | None:
        """Verdict for a pair given in any order (``None`` if never opened)."""
        key = (s1, s2) if s1 < s2 else (s2, s1)
        return self.decisions.get(key)

    def copy_probability(self, copier: int, original: int) -> float:
        """Directed posterior ``Pr(copier -> original | Phi)``.

        Used by ACCUCOPY's vote discounting.  Unopened pairs are
        independent, so the probability is 0.
        """
        if copier == original:
            raise ValueError("a source cannot copy from itself")
        key = (copier, original) if copier < original else (original, copier)
        decision = self.decisions.get(key)
        if decision is None:
            return 0.0
        if copier < original:
            return decision.posterior.forward
        return decision.posterior.backward
