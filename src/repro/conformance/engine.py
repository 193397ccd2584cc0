"""The differential grid fuzzer: every configuration vs the reference.

A *case* is one :class:`~repro.conformance.generators.World` run under
one :class:`CaseConfig` and diffed against the pure-Python reference run
of the *same* structural configuration.  Only the implementation axes —
``backend``, ``fusion_backend``, ``executor`` — flip between candidate
and reference; the structural axes (method, partitioning, reduce
topology, epoch size, ordering, round count) are held fixed, because
changing them legitimately changes float association or early-stop
scores.  What must never change is pinned by the configuration's
*contract*:

``bitexact``
    ``PairDecision``/``PairBookkeeping`` dicts compared with ``==`` —
    exact float equality on scores and posteriors — plus the full
    :class:`~repro.core.result.CostCounter` triple.  Applies to the
    epoch-batched bound scans (serial), to every pure-Python candidate
    (executors must not change bits), and to ``scan`` mode outright.

``numeric``
    Identical decision key sets, identical ``copying``/``early`` flags
    and tie-broken truths, scores and posteriors within ``1e-9``
    (float re-association error of the vectorized kernels), and the
    full ``CostCounter`` triple exactly equal, partitioned runs
    included.  One carve-out: a fused truth whose *reference*
    top-2 probability margin is itself below the tolerance may resolve
    to either value — sub-tolerance near-ties are the one place where
    re-association legitimately reaches the decision surface
    (structural ties stay bit-equal in both backends and break
    identically).

Multi-round fusion cases are checked in **lockstep**, not end-to-end:
iterating the loop on drifted inputs is chaotic on ill-conditioned
worlds (a sub-1e-9 absolute drift in a ``p ~ 1e-14`` value probability
is a large *relative* drift, which ``ln`` turns into an O(1) score
shift, which flips *which* pairs terminate early — every downstream
number then differs defensibly).  Instead the engine advances the
*candidate's* trajectory and, at every round, feeds the bit-identical
current state to both implementations: candidate vs reference
detection under the full single-round contract above (bit-exact for
the bound family — ``PairBookkeeping``-bearing INCREMENTAL rounds
included), candidate vs reference ACCU/ACCUCOPY updates at
:data:`NUMERIC_TOL`, and tie-aware fused truths.  Local-step
conformance is strictly stronger than trajectory-end comparison and
stays well-posed on every world.

On divergence the world is greedily shrunk (drop sources, then items,
then single claims, re-checking the divergence after each candidate cut)
and serialized into the regression corpus
(:mod:`repro.conformance.corpus`), which the tier-1 suite replays
forever.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from operator import itemgetter
from typing import Callable, Sequence

from ..core import (
    METHODS,
    PARALLEL_METHODS,
    CopyParams,
    detect,
    make_detector,
    scan_with_bounds,
)
from ..core.detector import PREPARE_ROUND
from ..core.index import EntryOrdering
from ..core.params import validate_execution
from ..core.result import DetectionResult
from ..fusion.accu import choose_values
from ..fusion.pipeline import (
    INITIAL_ACCURACY,
    FusionConfig,
    fusion_steps,
)
from .generators import World, generate_world

#: Absolute tolerance of the ``numeric`` contract — the property-tested
#: re-association bound of the vectorized kernels.
NUMERIC_TOL = 1e-9

#: Candidate evaluations :func:`run_grid` grants the shrinker per
#: divergence.
MAX_SHRINK_CHECKS = 150

#: Methods valid per mode.
SCAN_METHODS = ("bound", "bound+", "hybrid")
FUSION_METHODS = METHODS + ("incremental", "none")


@dataclass(frozen=True)
class CaseConfig:
    """One point of the (method x backend x executor x ...) grid.

    ``mode`` selects the comparison surface: ``"detect"`` diffs a single
    :func:`~repro.core.detect` round (or the parallel engine when
    ``n_partitions > 1``), ``"scan"`` diffs a raw
    :func:`~repro.core.scan_with_bounds` outcome including its
    :class:`~repro.core.PairBookkeeping`, and ``"fusion"`` diffs a
    pinned-round :func:`~repro.fusion.run_fusion` (multi-round
    incremental fusion included).
    """

    mode: str
    method: str
    backend: str = "numpy"
    fusion_backend: str | None = None
    executor: str = "serial"
    n_partitions: int = 1
    reduce: str = "flat"
    epoch_size: int | None = None
    ordering: str = "by_contribution"
    hybrid_threshold: int | None = None
    rounds: int = 4
    pair_layout: str = "auto"
    #: Truth-finding update under test in ``fusion`` mode: ``"accu"``
    #: (the default softmax) or ``"ds"`` (Dempster-Shafer — both sides
    #: run the DS combination and the per-item conflict dicts are part
    #: of the compared surface).
    fusion_method: str = "accu"

    def __post_init__(self) -> None:
        valid = {
            "detect": METHODS,
            "scan": SCAN_METHODS,
            "fusion": FUSION_METHODS,
        }
        if self.mode not in valid:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.method not in valid[self.mode]:
            raise ValueError(
                f"method {self.method!r} invalid for mode {self.mode!r}"
            )
        EntryOrdering(self.ordering)  # ValueError for an unknown ordering
        # The core's own checks: a fixture's JSON must not carry an axis
        # that a run would silently drop or the candidate alone reject.
        validate_execution(
            _params(self), self.n_partitions, self.executor, self.reduce
        )
        if self.n_partitions > 1 and (
            self.mode == "scan" or self.method not in PARALLEL_METHODS
        ):
            raise ValueError(
                f"n_partitions > 1 supports methods {PARALLEL_METHODS} "
                f"outside mode 'scan', not {self.mode!r}/{self.method!r}"
            )
        # The config's own rules; a fusion case's rounds are its max_rounds.
        rounds = {"max_rounds": self.rounds} if self.mode == "fusion" else {}
        FusionConfig(fusion_method=self.fusion_method, **rounds)
        if self.fusion_method != "accu" and self.mode != "fusion":
            raise ValueError(
                f"fusion_method {self.fusion_method!r} applies to mode "
                f"'fusion' only, not {self.mode!r}"
            )
        if self.epoch_size is not None and self.mode != "scan":
            raise ValueError(
                f"epoch_size applies to mode 'scan' only (scan_with_bounds "
                f"is where the boundary stress is applied), not {self.mode!r}"
            )
        if self.epoch_size is not None and self.epoch_size < 1:
            raise ValueError(f"epoch_size must be >= 1, got {self.epoch_size}")

    @property
    def label(self) -> str:
        """Compact display/report name, unique within a grid."""
        parts = [self.mode, self.method, self.backend]
        if self.fusion_backend and self.fusion_backend != self.backend:
            parts.append(f"fuse-{self.fusion_backend}")
        if self.n_partitions > 1:
            parts.append(f"p{self.n_partitions}-{self.executor}-{self.reduce}")
        elif self.executor != "serial":
            parts.append(self.executor)
        if self.epoch_size is not None:
            parts.append(f"e{self.epoch_size}")
        if self.ordering != "by_contribution":
            parts.append(self.ordering)
        if self.hybrid_threshold is not None:
            parts.append(f"t{self.hybrid_threshold}")
        if self.mode == "fusion":
            parts.append(f"r{self.rounds}")
        if self.fusion_method != "accu":
            parts.append(self.fusion_method)
        if self.pair_layout != "auto":
            parts.append(self.pair_layout)
        return ":".join(parts)

    def reference(self) -> "CaseConfig":
        """The paper-literal twin: python backends, in-process executor."""
        return replace(
            self, backend="python", fusion_backend="python", executor="serial"
        )

    @property
    def detection_contract(self) -> str:
        """What one detection round is held to, in every mode: bit-exact
        for raw scans, for pure-Python candidates and for the
        unpartitioned bound family (INCREMENTAL included), else numeric."""
        if self.mode == "scan" or self.backend == "python":
            return "bitexact"
        if self.n_partitions == 1 and self.method in SCAN_METHODS + (
            "incremental",
        ):
            return "bitexact"
        return "numeric"

    @property
    def contract(self) -> str:
        """``"bitexact"`` or ``"numeric"`` (see the module docstring): a
        fusion case's truth-finding updates are bit-exact only when
        neither of its backends is numpy."""
        if self.mode == "fusion" and "numpy" in (self.backend, self.fusion_backend):
            return "numeric"
        return self.detection_contract


@dataclass
class CaseOutcome:
    """The diff of one case: empty ``divergences`` means conformance."""

    config: CaseConfig
    divergences: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)


# ----------------------------------------------------------------------
# Running a side
# ----------------------------------------------------------------------
def _params(config: CaseConfig) -> CopyParams:
    return CopyParams(backend=config.backend, pair_layout=config.pair_layout)


#: The lazily forked localhost cluster shared by every ``remote`` case:
#: the first remote case pays the fork and dial, the rest reuse the live
#: workers (LocalCluster registers its own atexit cleanup).
_SHARED_CLUSTER: tuple | None = None


def _shared_cluster():
    global _SHARED_CLUSTER
    if _SHARED_CLUSTER is None:
        from ..cluster import LocalCluster

        cluster = LocalCluster(2)
        _SHARED_CLUSTER = (cluster, cluster.executor())
    return _SHARED_CLUSTER[1]


def _execution(config: CaseConfig) -> dict:
    """The case's ordering, threshold and partition arguments, as
    ``detect``, ``make_detector`` and ``scan_with_bounds`` take them."""
    execution: dict = {"ordering": EntryOrdering(config.ordering)}
    if config.hybrid_threshold is not None:
        execution["hybrid_threshold"] = config.hybrid_threshold
    if config.n_partitions > 1:
        execution.update(
            n_partitions=config.n_partitions,
            executor=config.executor,
            reduce=config.reduce,
            cluster=_shared_cluster() if config.executor == "remote" else None,
        )
    return execution


def _run(dataset, probabilities, accuracies, config: CaseConfig):
    """One side of a ``detect`` or ``scan`` case."""
    world = (dataset, probabilities, accuracies, _params(config))
    execution = _execution(config)
    if config.mode == "detect":
        return detect(*world, method=config.method, **execution)
    execution.setdefault("hybrid_threshold", 16 if config.method == "hybrid" else 0)
    return scan_with_bounds(
        *world,
        use_timers=config.method != "bound",
        track_bookkeeping=True,
        epoch_size=config.epoch_size,
        **execution,
    )


# ----------------------------------------------------------------------
# Comparing two sides
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= NUMERIC_TOL


def _key_mismatch(what: str, reference, candidate) -> list[str]:
    """One problem when two pair-keyed tables differ in their keys."""
    want, got = set(reference), set(candidate)
    if want == got:
        return []
    return [
        f"{what} pairs differ: missing={sorted(want - got)[:5]} "
        f"extra={sorted(got - want)[:5]}"
    ]


def _compare_decisions(
    reference: DetectionResult, candidate: DetectionResult, contract: str
) -> list[str]:
    problems = _key_mismatch("decision", reference.decisions, candidate.decisions)
    if problems:
        return problems
    # One pass over the candidate's rows in key order (a table's items
    # already are): no per-pair lookup into it.
    for pair, got in sorted(candidate.decisions.items(), key=itemgetter(0)):
        ref = reference.decisions[pair]
        if contract == "bitexact":
            if got != ref:
                problems.append(
                    f"pair {pair}: decision not bit-identical "
                    f"(c_fwd {got.c_fwd.hex()} vs {ref.c_fwd.hex()}, "
                    f"c_bwd {got.c_bwd.hex()} vs {ref.c_bwd.hex()}, "
                    f"copying {got.copying} vs {ref.copying}, "
                    f"early {got.early} vs {ref.early})"
                )
            continue
        if got.copying != ref.copying:
            problems.append(
                f"pair {pair}: copying verdict {got.copying} vs {ref.copying}"
            )
        if got.early != ref.early:
            problems.append(f"pair {pair}: early flag {got.early} vs {ref.early}")
        for name in ("c_fwd", "c_bwd"):
            if not _close(getattr(got, name), getattr(ref, name)):
                problems.append(
                    f"pair {pair}: {name} drift "
                    f"{getattr(got, name)!r} vs {getattr(ref, name)!r}"
                )
        for name in ("independent", "forward", "backward"):
            if not _close(
                getattr(got.posterior, name), getattr(ref.posterior, name)
            ):
                problems.append(
                    f"pair {pair}: posterior.{name} drift "
                    f"{getattr(got.posterior, name)!r} vs "
                    f"{getattr(ref.posterior, name)!r}"
                )
    return problems


def _case_problems(reference, candidate, config: CaseConfig) -> list[str]:
    """Diff two sides computed from *identical* inputs under
    ``config.detection_contract``: a detection round (a ``fusion``
    lockstep round included), or a ``scan`` outcome plus its
    bookkeeping, bit for bit."""
    bookkeeping: list[str] = []
    if config.mode == "scan":
        ref_book = reference.bookkeeping or {}
        got_book = candidate.bookkeeping or {}
        bookkeeping = _key_mismatch("bookkeeping", ref_book, got_book) or [
            f"pair {pair}: bookkeeping not bit-identical "
            f"({got_book[pair]} vs {ref_book[pair]})"
            for pair in sorted(ref_book)
            if got_book[pair] != ref_book[pair]
        ]
        reference, candidate = reference.result, candidate.result
    contract = config.detection_contract
    problems = _compare_decisions(reference, candidate, contract)
    # The vectorized kernels reproduce the paper's computation accounting
    # exactly even where scores differ in the last bits, partitioned or
    # not.
    problems.extend(
        f"cost.{name}: {getattr(candidate.cost, name)} vs "
        f"{getattr(reference.cost, name)}"
        for name in ("computations", "values_examined", "pairs_considered")
        if getattr(candidate.cost, name) != getattr(reference.cost, name)
    )
    return problems + bookkeeping


def _state_bits(state) -> dict:
    """An INCREMENTAL state in terms ``==`` compares bit for bit (floats
    as ``float.hex``; records through ``records()``, so a python and a
    columnar state read alike)."""

    def bits(value):
        return value.hex() if isinstance(value, float) else value

    return {
        "round stats": state.history[-1],
        "reopen_level": float(state.reopen_level).hex(),
        **{
            name: [float(x).hex() for x in getattr(state, name)]
            for name in ("p_ref", "s_ref", "a_ref")
        },
        "records": {
            pair: tuple(bits(getattr(record, name)) for name in record.__slots__)
            for pair, record in state.records().items()
        },
    }


def incremental_state_problems(reference, candidate) -> list[str]:
    """Diff two INCREMENTAL states that saw identical rounds, bit for bit:
    the last round's :class:`~repro.core.RoundStats`, the re-open level,
    the three reference vectors and every per-pair record column."""
    want, got = _state_bits(reference), _state_bits(candidate)
    want_records, got_records = want.pop("records"), got.pop("records")
    problems = [
        f"state {name} differs" for name in want if got[name] != want[name]
    ]
    if got_records != want_records:
        odd = sorted(set(want_records) ^ set(got_records)) or sorted(
            pair for pair in want_records if got_records[pair] != want_records[pair]
        )
        problems.append(f"state records differ, first at pair {odd[0]}")
    return problems


def _fusion_case(dataset, config: CaseConfig) -> list[str]:
    """Lockstep conformance along the candidate's fusion trajectory.

    Comparing two complete fusion runs end-to-end is chaotic on
    ill-conditioned worlds (see the module docstring), so the engine
    advances one trajectory — the candidate's — and verifies every step
    against the reference *on bit-identical inputs*: the per-round
    detection under the full single-round contract, the ACCU/ACCUCOPY
    value-probability and accuracy updates at :data:`NUMERIC_TOL`, and
    the round's tie-aware fused truths.  Both detectors (stateful
    INCREMENTAL included) see exactly the same inputs every round, so
    their cross-round state stays comparable by construction.

    Under ``fusion_method == "ds"`` the value-probability step runs the
    Dempster-Shafer combination instead (reference loop vs columnar
    kernel) and each round's per-item conflict dict joins the compared
    surface at the same tolerance; the accuracy update is the shared
    ACCU re-estimate either way, exactly as in ``run_fusion``.
    """
    fusion_config = FusionConfig(fusion_method=config.fusion_method)
    columns = None
    # Same reference loops on both sides under a python fusion backend:
    # any difference is nondeterminism, which is itself a divergence.
    update_tol = 0.0
    if (config.fusion_backend or config.backend) == "numpy":
        columns = dataset.columns
        update_tol = NUMERIC_TOL
    reference = config.reference()
    candidate_probs, candidate_accs = fusion_steps(
        dataset, _params(config), fusion_config, columns
    )
    reference_probs, reference_accs = fusion_steps(
        dataset, _params(reference), fusion_config
    )
    detector, ref_detector = (
        make_detector(side.method, _params(side), **_execution(side))
        for side in (config, reference)
    )
    problems: list[str] = []

    def compare_vector(round_no: int, name: str, got, ref) -> None:
        got = [float(x) for x in got]
        ref = [float(x) for x in ref]
        if len(got) != len(ref):
            problems.append(
                f"round {round_no}: {name} length {len(got)} vs {len(ref)}"
            )
            return
        problems.extend(
            f"round {round_no}: {name}[{i}] drift {g!r} vs {r!r}"
            for i, (g, r) in enumerate(zip(got, ref))
            if abs(g - r) > update_tol
        )

    def compare_truths(round_no: int, got_probs, ref_probs) -> None:
        got_chosen = choose_values(dataset, got_probs)
        ref_chosen = choose_values(dataset, ref_probs)
        if got_chosen == ref_chosen:
            return
        for item in sorted(set(got_chosen) | set(ref_chosen)):
            got_value = got_chosen.get(item)
            ref_value = ref_chosen.get(item)
            if got_value == ref_value:
                continue
            if (
                got_value is not None
                and ref_value is not None
                and _close(ref_probs[got_value], ref_probs[ref_value])
            ):
                # Sub-tolerance near-tie in the reference itself: both
                # resolutions are defensible (structural ties stay
                # bit-equal and break identically).
                continue
            problems.append(
                f"round {round_no}: fused truth for item {item} differs "
                f"({got_value} vs {ref_value})"
            )

    def compare_conflict(round_no: int, got, ref) -> None:
        if got is None and ref is None:
            return
        if got is None or ref is None or set(got) != set(ref):
            problems.append(
                f"round {round_no}: conflict items differ "
                f"({None if got is None else sorted(got)[:5]} vs "
                f"{None if ref is None else sorted(ref)[:5]})"
            )
            return
        problems.extend(
            f"round {round_no}: conflict[{item}] drift "
            f"{got[item]!r} vs {ref[item]!r}"
            for item in sorted(got)
            if abs(got[item] - ref[item]) > update_tol
        )

    accuracies = [INITIAL_ACCURACY] * dataset.n_sources
    cand_probs, cand_conflict = candidate_probs(accuracies)
    probabilities = [float(p) for p in cand_probs]
    ref_probs, ref_conflict = reference_probs(accuracies)
    compare_vector(0, "probabilities", probabilities, ref_probs)
    compare_conflict(0, cand_conflict, ref_conflict)

    for round_no in range(1, config.rounds + 1):
        detection = None
        if detector is not None:
            detection = detector.run_round(
                round_no, dataset, probabilities, accuracies
            )
            ref_detection = ref_detector.run_round(
                round_no, dataset, probabilities, accuracies
            )
            problems.extend(
                f"round {round_no}: {problem}"
                for problem in _case_problems(ref_detection, detection, config)
            )
            state = getattr(detector, "state", None)
            if (
                config.detection_contract == "bitexact"
                and state is not None
                and round_no > PREPARE_ROUND
            ):
                if detection.changed_pairs != ref_detection.changed_pairs:
                    problems.append(f"round {round_no}: changed_pairs differ")
                problems.extend(
                    f"round {round_no}: {problem}"
                    for problem in incremental_state_problems(
                        ref_detector.state, state
                    )
                )
        cand_probs, cand_conflict = candidate_probs(accuracies, detection)
        new_probs = [float(p) for p in cand_probs]
        ref_probs, ref_conflict = reference_probs(accuracies, detection)
        compare_vector(round_no, "probabilities", new_probs, ref_probs)
        compare_truths(round_no, new_probs, ref_probs)
        compare_conflict(round_no, cand_conflict, ref_conflict)
        new_accs = [float(a) for a in candidate_accs(new_probs)]
        compare_vector(
            round_no, "accuracies", new_accs, reference_accs(new_probs)
        )
        probabilities, accuracies = new_probs, new_accs
    return problems


def run_case(world: World, config: CaseConfig) -> CaseOutcome:
    """Run one world under one configuration and diff it vs the reference.

    In ``detect``/``scan`` mode, reference-side exceptions propagate
    (they indicate an engine or generator bug, not a conformance
    divergence) while an exception from the candidate's run or its diff
    is itself a divergence; ``fusion`` mode interleaves the two sides,
    so any exception there is reported as a divergence.
    """
    start = time.perf_counter()
    dataset, probabilities, accuracies = world.materialize()
    side, reference = "fusion lockstep", None
    if config.mode != "fusion":
        side = "candidate"
        reference = _run(dataset, probabilities, accuracies, config.reference())
    try:
        if reference is None:
            divergences = _fusion_case(dataset, config)
        else:
            candidate = _run(dataset, probabilities, accuracies, config)
            divergences = _case_problems(reference, candidate, config)
    except Exception:
        divergences = [f"{side} raised:\n" + traceback.format_exc(limit=8)]
    return CaseOutcome(config, divergences, time.perf_counter() - start)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_world(
    world: World,
    still_diverges: Callable[[World], bool],
    max_checks: int = 200,
) -> World:
    """Greedily minimise a diverging world while the divergence persists.

    Tries the biggest cuts first — whole sources, then whole items, then
    single claims — restarting each pass after a successful cut, within a
    budget of ``max_checks`` candidate evaluations.  A cut that makes
    ``still_diverges`` raise is treated as not preserving the divergence.
    """
    checks = 0

    def check(candidate: World) -> bool:
        nonlocal checks
        checks += 1
        try:
            return still_diverges(candidate)
        except Exception:
            return False

    current = world
    for cuts in (
        lambda w: [w.without_source(s) for s in w.sources if w.n_sources > 2],
        lambda w: [w.without_item(i) for i in dict.fromkeys(c[1] for c in w.claims)],
        lambda w: [w.without_claim(p) for p in range(w.n_claims)],
    ):
        progressed = True
        while progressed and checks < max_checks:
            progressed = False
            for candidate in cuts(current):
                if checks >= max_checks:
                    break
                if check(candidate):
                    current = candidate
                    progressed = True
                    break
    return current


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
def smoke_grid() -> list[CaseConfig]:
    """The PR-time grid: all seven methods, both backends, all four
    executors (the remote one against a live 2-worker localhost
    cluster), both reduce topologies, and multi-round incremental
    fusion — kept small enough to finish within a CI smoke budget."""
    configs: list[CaseConfig] = [
        # Single-round detection, vectorized backends (serial).
        *(CaseConfig("detect", method) for method in METHODS),
        # Raw scans incl. bit-exact bookkeeping, tiny + default epochs.
        CaseConfig("scan", "bound", epoch_size=3),
        CaseConfig("scan", "bound+", epoch_size=3),
        CaseConfig("scan", "bound+"),
        CaseConfig("scan", "hybrid", epoch_size=3),
        CaseConfig("scan", "hybrid"),
        # One-entry epochs seed every timer chain from the epoch before.
        CaseConfig("scan", "bound", epoch_size=1),
        CaseConfig("scan", "hybrid", epoch_size=1),
        # The parallel engine: threads + processes, flat + tree,
        # python + numpy payloads.
        CaseConfig("detect", "index", n_partitions=2, executor="threads",
                   reduce="tree"),
        CaseConfig("detect", "index", n_partitions=3, executor="processes"),
        CaseConfig("detect", "index", backend="python", n_partitions=2,
                   executor="threads", reduce="tree"),
        CaseConfig("detect", "hybrid", n_partitions=2, executor="threads"),
        CaseConfig("detect", "hybrid", n_partitions=2, executor="processes",
                   reduce="tree"),
        # The remote executor: a shared 2-worker localhost cluster
        # (separate interpreters, real sockets) must conform exactly
        # like the in-process executors.
        CaseConfig("detect", "index", n_partitions=2, executor="remote",
                   reduce="tree"),
        CaseConfig("detect", "hybrid", n_partitions=2, executor="remote"),
        # The sparse pair layout forced on small worlds: the compact
        # observed-pair state must match the reference bit-for-bit
        # (bound family) / at tolerance (kernel + fusion paths).
        CaseConfig("detect", "index", pair_layout="sparse"),
        CaseConfig("detect", "bound+", pair_layout="sparse"),
        CaseConfig("detect", "hybrid", pair_layout="sparse"),
        CaseConfig("scan", "bound+", epoch_size=3, pair_layout="sparse"),
        # Mass-derived epochs under sparse slots; with 37 configurations
        # against nine world kinds every configuration meets every kind,
        # so the saturated worlds' probability-keyed log grid is
        # refereed under both layouts at push time.
        CaseConfig("scan", "hybrid", pair_layout="sparse"),
        CaseConfig("fusion", "bound+", rounds=3, pair_layout="sparse"),
        # Multi-round fusion: ACCU ("none"), ACCUCOPY under every
        # detector, INCREMENTAL's prepare + incremental rounds.
        *(CaseConfig("fusion", method, rounds=4) for method in FUSION_METHODS),
        CaseConfig("fusion", "incremental", backend="python",
                   fusion_backend="numpy", rounds=4),
        CaseConfig("fusion", "index", n_partitions=2, executor="threads",
                   reduce="tree", rounds=3),
        # Dempster-Shafer fusion: reference DS loop vs columnar DS
        # kernel, per-item conflict dicts part of the compared surface;
        # the sparse row's discount reads the verdict table itself.
        CaseConfig("fusion", "none", fusion_method="ds", rounds=3),
        CaseConfig("fusion", "hybrid", fusion_method="ds", rounds=3),
        CaseConfig("fusion", "hybrid", fusion_method="ds", rounds=3,
                   pair_layout="sparse"),
    ]
    return configs


def full_grid() -> list[CaseConfig]:
    """The nightly grid: the smoke grid plus orderings, epoch sweeps,
    deeper partitioning and longer fusion runs."""
    configs = smoke_grid()
    configs += [
        # Alternative orderings and hybrid thresholds for the scans.
        CaseConfig("scan", "bound", ordering="by_provider", epoch_size=3),
        CaseConfig("scan", "bound+", ordering="by_provider"),
        CaseConfig("scan", "hybrid", hybrid_threshold=1, epoch_size=3),
        CaseConfig("scan", "bound+", epoch_size=1),
        CaseConfig("scan", "hybrid", epoch_size=128),
        # Detection with alternative orderings and thresholds.
        CaseConfig("detect", "bound+", ordering="by_provider"),
        CaseConfig("detect", "hybrid", hybrid_threshold=1),
        # Deeper partitioning.
        CaseConfig("detect", "index", n_partitions=4, executor="threads"),
        CaseConfig("detect", "index", n_partitions=4, executor="processes",
                   reduce="tree"),
        CaseConfig("detect", "hybrid", n_partitions=3, executor="threads",
                   reduce="tree"),
        CaseConfig("detect", "hybrid", backend="python", n_partitions=3,
                   executor="threads"),
        # Deeper sparse-layout coverage: the remaining methods, the
        # parallel merge path, and an epoch sweep.
        CaseConfig("detect", "pairwise", pair_layout="sparse"),
        CaseConfig("detect", "bound", pair_layout="sparse"),
        CaseConfig("scan", "bound+", epoch_size=1, pair_layout="sparse"),
        CaseConfig("detect", "index", n_partitions=2, executor="threads",
                   reduce="tree", pair_layout="sparse"),
        CaseConfig("fusion", "incremental", rounds=4, pair_layout="sparse"),
        # Longer fusion runs and mixed-backend fusion.
        CaseConfig("fusion", "incremental", rounds=6),
        CaseConfig("fusion", "hybrid", rounds=6),
        CaseConfig("fusion", "none", backend="python", fusion_backend="numpy",
                   rounds=6),
        CaseConfig("fusion", "hybrid", n_partitions=2, executor="processes",
                   reduce="tree", rounds=3),
        CaseConfig("detect", "index", n_partitions=3, executor="remote",
                   reduce="flat"),
        CaseConfig("fusion", "index", n_partitions=2, executor="remote",
                   reduce="tree", rounds=3),
        # Deeper Dempster-Shafer coverage: the stateful INCREMENTAL
        # detector and the mixed-backend (python detection, numpy DS
        # fusion) split.
        CaseConfig("fusion", "incremental", fusion_method="ds", rounds=4),
        CaseConfig("fusion", "none", backend="python",
                   fusion_backend="numpy", fusion_method="ds", rounds=4),
    ]
    return configs


GRIDS: dict[str, Callable[[], list[CaseConfig]]] = {
    "smoke": smoke_grid,
    "full": full_grid,
}


# ----------------------------------------------------------------------
# The grid runner
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """One confirmed divergence, shrunk and persisted."""

    case_index: int
    config: CaseConfig
    world: World
    details: list[str]
    corpus_path: str | None = None


@dataclass
class ConformanceReport:
    """Machine-readable outcome of one grid run."""

    grid: str
    seed: int
    n_cases: int
    configs: list[CaseConfig]
    divergences: list[Divergence] = field(default_factory=list)
    cases_per_config: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        """The ``--report`` payload (stable, versioned)."""
        return {
            "version": 1,
            "grid": self.grid,
            "seed": self.seed,
            "cases": self.n_cases,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "configs": [
                {
                    "label": config.label,
                    "contract": config.contract,
                    "cases": self.cases_per_config.get(config.label, 0),
                }
                for config in self.configs
            ],
            "divergences": [
                {
                    "case_index": d.case_index,
                    "config": asdict(d.config),
                    "label": d.config.label,
                    "world_kind": d.world.kind,
                    "world_sources": d.world.n_sources,
                    "world_claims": d.world.n_claims,
                    "details": d.details,
                    "corpus_path": d.corpus_path,
                }
                for d in self.divergences
            ],
        }


def run_grid(
    grid: str = "smoke",
    n_cases: int = 240,
    seed: int = 7,
    corpus_dir=None,
    shrink: bool = True,
    configs: Sequence[CaseConfig] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ConformanceReport:
    """Sweep ``n_cases`` (world, config) cases over a named grid.

    Case ``i`` pairs configuration ``i % len(configs)`` with the
    deterministic world ``generate_world(i, seed)``, so every
    configuration meets every world kind and any case can be regenerated
    from ``(grid, seed, i)`` alone.  Divergent worlds are shrunk and, if
    ``corpus_dir`` is given, serialized there as replayable fixtures.

    Raises:
        ValueError: for an unknown grid name (when ``configs`` is not
            given) or ``n_cases < 1``.
    """
    if configs is None:
        try:
            configs = GRIDS[grid]()
        except KeyError:
            raise ValueError(
                f"unknown grid {grid!r}; expected one of {tuple(GRIDS)}"
            )
    configs = list(configs)
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    start = time.perf_counter()
    report = ConformanceReport(
        grid=grid, seed=seed, n_cases=n_cases, configs=configs
    )
    for case_index in range(n_cases):
        config = configs[case_index % len(configs)]
        world = generate_world(case_index, seed)
        outcome = run_case(world, config)
        report.cases_per_config[config.label] = (
            report.cases_per_config.get(config.label, 0) + 1
        )
        if not outcome.diverged:
            continue
        if progress is not None:
            progress(
                f"divergence at case {case_index} [{config.label}] "
                f"on a {world.kind} world — shrinking"
            )
        shrunk, details = world, outcome.divergences
        if shrink:
            # Remember each accepted candidate's divergences so the
            # shrunk world never needs a redundant re-run (the final
            # world was, by construction, the last accepted check).
            seen: dict[int, tuple[World, list[str]]] = {}

            def still_diverges(candidate: World) -> bool:
                case = run_case(candidate, config)
                if case.diverged:
                    seen[id(candidate)] = (candidate, case.divergences)
                return case.diverged

            shrunk = shrink_world(
                world, still_diverges, max_checks=MAX_SHRINK_CHECKS
            )
            remembered = seen.get(id(shrunk))
            if remembered is not None and remembered[0] is shrunk:
                details = remembered[1]
        divergence = Divergence(
            case_index=case_index, config=config, world=shrunk, details=details
        )
        if corpus_dir is not None:
            from .corpus import save_case

            divergence.corpus_path = str(
                save_case(shrunk, config, details, corpus_dir)
            )
        report.divergences.append(divergence)
    report.elapsed_seconds = time.perf_counter() - start
    return report
