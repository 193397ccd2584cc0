"""World generators shared by the conformance engine and the test suite.

Historically the adversarial generation logic — clone sources, extreme
value probabilities, tied accuracy menus, ``theta_cp`` threshold-edge
bisection — lived as hypothesis strategies in ``tests/strategies.py``,
which made it unusable outside a hypothesis ``@given``.  The differential
grid fuzzer needs the *same* worlds but driven by a plain seeded
``random.Random`` (so every case is replayable from a seed), so the
construction logic lives here once, written against the tiny
:class:`Chooser` interface, with two adapters:

* :class:`RandomChooser` — wraps ``random.Random``; what the conformance
  engine uses (``repro conformance --seed N`` is fully deterministic).
* :class:`DrawChooser` — wraps a hypothesis ``draw`` function; the
  strategies at the bottom of this module (re-exported by
  ``tests/strategies.py``) use it, so shrinking still works.

On top of the drawn worlds, :func:`profile_world` reuses the Table V
``synth`` profiles (zipf coverage, heterogeneous accuracies) at tiny
scales, and :func:`theta_edge_worlds` bisects a value probability down to
*adjacent float64s* so the accumulated ``C^min`` lands as exactly on
``theta_cp`` as float worlds allow.

A drawn problem is packaged as a :class:`World` — claims as
``(source, item, value)`` string triples plus per-value probabilities and
per-source accuracies keyed by *names*, not ids — so it survives
shrinking (dropping a source re-interns every id; names are stable) and
serializes losslessly into the regression corpus
(:mod:`repro.conformance.corpus`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from ..data import Dataset, DatasetBuilder

#: Probabilities that drive Eq. (6) contributions to their extremes:
#: sharing a near-certainly-false value (p -> 0) concludes *copying* on
#: the very first shared entry; near-certainly-true values (p -> 1)
#: contribute almost nothing, pushing pairs toward the no-copy bound or
#: all the way to an exact scan-end resolution.
EXTREME_PROBABILITIES = (0.001, 0.002, 0.01, 0.2, 0.5, 0.9, 0.99, 0.998, 0.999)

#: Accuracy menus: a single shared value exercises tied per-provider
#: terms (and the numpy backend's grid-deduplicated log path); the
#: extremes exercise clamping.
ACCURACY_MENUS = ((0.8,), (0.5,), (0.99,), (0.01, 0.99), (0.3, 0.8), (0.5, 0.75, 0.9))


class Chooser(Protocol):
    """The decisions a world builder needs, backend-agnostic."""

    def integer(self, lo: int, hi: int) -> int:  # pragma: no cover - protocol
        """An integer in ``[lo, hi]`` inclusive."""
        ...

    def boolean(self) -> bool:  # pragma: no cover - protocol
        ...

    def choice(self, options: Sequence):  # pragma: no cover - protocol
        ...

    def unit_float(self, lo: float, hi: float) -> float:  # pragma: no cover
        ...

    def subset(self, lo: int, hi: int, max_size: int) -> list[int]:  # pragma: no cover
        """A duplicate-free list of integers from ``[lo, hi]``."""
        ...


class RandomChooser:
    """Drive the builders from a seeded ``random.Random`` (replayable)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def integer(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def boolean(self) -> bool:
        return self.rng.random() < 0.5

    def choice(self, options: Sequence):
        return options[self.rng.randrange(len(options))]

    def unit_float(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def subset(self, lo: int, hi: int, max_size: int) -> list[int]:
        population = range(lo, hi + 1)
        size = min(self.rng.randint(0, max_size), len(population))
        return self.rng.sample(population, size)


class DrawChooser:
    """Drive the builders from a hypothesis ``draw`` (shrinkable)."""

    def __init__(self, draw: Callable):
        from hypothesis import strategies as st

        self.draw = draw
        self.st = st

    def integer(self, lo: int, hi: int) -> int:
        return self.draw(self.st.integers(min_value=lo, max_value=hi))

    def boolean(self) -> bool:
        return self.draw(self.st.booleans())

    def choice(self, options: Sequence):
        return self.draw(self.st.sampled_from(list(options)))

    def unit_float(self, lo: float, hi: float) -> float:
        return self.draw(self.st.floats(min_value=lo, max_value=hi))

    def subset(self, lo: int, hi: int, max_size: int) -> list[int]:
        return self.draw(
            self.st.lists(
                self.st.integers(min_value=lo, max_value=hi),
                unique=True,
                max_size=max_size,
            )
        )


# ----------------------------------------------------------------------
# The name-keyed world container
# ----------------------------------------------------------------------
@dataclass
class World:
    """A complete detection problem keyed by stable string names.

    Attributes:
        kind: which generator produced it (diagnostic; stored in corpus
            fixtures).
        sources: every source name in id order — including claimless
            sources, which ``claims`` alone could not represent.
        claims: ``(source, item, value)`` triples in interning order.
        prob_by_value: ``(item, value) -> P(D.v)``.
        acc_by_source: ``source -> A(S)``.
    """

    kind: str
    sources: list[str]
    claims: list[tuple[str, str, str]]
    prob_by_value: dict[tuple[str, str], float]
    acc_by_source: dict[str, float]
    seed: int | None = field(default=None, compare=False)

    def materialize(self) -> tuple[Dataset, list[float], list[float]]:
        """Build the ``(dataset, probabilities, accuracies)`` triple.

        Interning order is fixed by ``sources`` + ``claims`` order, so
        two materializations of the same ``World`` are identical.
        """
        builder = DatasetBuilder()
        for source in self.sources:
            builder.ensure_source(source)
        for source, item, value in self.claims:
            builder.add(source, item, value)
        dataset = builder.build()
        probabilities = [
            self.prob_by_value[
                (dataset.item_names[dataset.value_item[v]], dataset.value_label[v])
            ]
            for v in range(dataset.n_values)
        ]
        accuracies = [self.acc_by_source[name] for name in dataset.source_names]
        return dataset, probabilities, accuracies

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_claims(self) -> int:
        return len(self.claims)

    def without_source(self, source: str) -> "World":
        """A copy with one source (and its claims) removed."""
        return World(
            kind=self.kind,
            sources=[s for s in self.sources if s != source],
            claims=[c for c in self.claims if c[0] != source],
            prob_by_value=dict(self.prob_by_value),
            acc_by_source={
                s: a for s, a in self.acc_by_source.items() if s != source
            },
            seed=self.seed,
        )

    def without_item(self, item: str) -> "World":
        """A copy with every claim on one item removed."""
        return World(
            kind=self.kind,
            sources=list(self.sources),
            claims=[c for c in self.claims if c[1] != item],
            prob_by_value=dict(self.prob_by_value),
            acc_by_source=dict(self.acc_by_source),
            seed=self.seed,
        )

    def without_claim(self, position: int) -> "World":
        """A copy with the claim at ``position`` removed."""
        return World(
            kind=self.kind,
            sources=list(self.sources),
            claims=self.claims[:position] + self.claims[position + 1 :],
            prob_by_value=dict(self.prob_by_value),
            acc_by_source=dict(self.acc_by_source),
            seed=self.seed,
        )


def world_from_problem(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    kind: str = "imported",
    seed: int | None = None,
) -> World:
    """Package an existing ``(dataset, probs, accs)`` problem as a World."""
    claims = [
        (dataset.source_names[source_id], dataset.item_names[item_id],
         dataset.value_label[value_id])
        for source_id, source_claims in enumerate(dataset.claims)
        for item_id, value_id in source_claims.items()
    ]
    prob_by_value = {
        (dataset.item_names[dataset.value_item[v]], dataset.value_label[v]):
            float(probabilities[v])
        for v in range(dataset.n_values)
    }
    acc_by_source = {
        name: float(accuracies[i]) for i, name in enumerate(dataset.source_names)
    }
    return World(
        kind=kind,
        sources=list(dataset.source_names),
        claims=claims,
        prob_by_value=prob_by_value,
        acc_by_source=acc_by_source,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Chooser-driven builders (one implementation for tests AND the engine)
# ----------------------------------------------------------------------
def build_dataset(
    choose: Chooser,
    max_sources: int = 8,
    max_items: int = 12,
    max_values_per_item: int = 4,
) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Draw a random small dataset as ``(sources, claims)``.

    Every source claims a random subset of items; each claim picks one of
    the item's candidate values, so shared values arise naturally.
    """
    n_sources = choose.integer(2, max_sources)
    n_items = choose.integer(1, max_items)
    sources = [f"S{source_id}" for source_id in range(n_sources)]
    claims: list[tuple[str, str, str]] = []
    for source in sources:
        for item_id in choose.subset(0, n_items - 1, n_items):
            value = choose.integer(0, max_values_per_item - 1)
            claims.append((source, f"item{item_id}", f"v{value}"))
    return sources, claims


def _finish_world(
    choose: Chooser,
    kind: str,
    sources: list[str],
    claims: list[tuple[str, str, str]],
    prob_of_value,
    acc_of_source,
) -> World:
    """Materialize once to fix value/source order, then draw the vectors.

    Probabilities are drawn in *value-id order* and accuracies in
    *source-id order* — exactly what the historical strategies did — so
    the hypothesis shrinker keeps its locality.
    """
    builder = DatasetBuilder()
    for source in sources:
        builder.ensure_source(source)
    for source, item, value in claims:
        builder.add(source, item, value)
    dataset = builder.build()
    prob_by_value = {}
    for v in range(dataset.n_values):
        key = (dataset.item_names[dataset.value_item[v]], dataset.value_label[v])
        prob_by_value[key] = prob_of_value(choose)
    acc_by_source = {
        name: acc_of_source(choose) for name in dataset.source_names
    }
    return World(
        kind=kind,
        sources=list(dataset.source_names),
        claims=claims,
        prob_by_value=prob_by_value,
        acc_by_source=acc_by_source,
    )


def random_world(
    choose: Chooser, max_sources: int = 8, max_items: int = 12
) -> World:
    """A (dataset, probabilities, accuracies) detection problem."""
    sources, claims = build_dataset(
        choose, max_sources=max_sources, max_items=max_items
    )
    return _finish_world(
        choose,
        "random",
        sources,
        claims,
        prob_of_value=lambda c: c.unit_float(0.001, 0.999),
        acc_of_source=lambda c: c.unit_float(0.01, 0.99),
    )


def adversarial_world(
    choose: Chooser, max_sources: int = 6, max_items: int = 8
) -> World:
    """A world engineered to sit on the bound scans' decision edges.

    Compared to :func:`random_world`: *clone* sources (identical claim
    sets — maximal overlap, copy conclusions on the earliest entries),
    extreme value probabilities (first-entry and last-entry conclusions),
    tiny accuracy menus (tied scores, timer milestones landing exactly on
    integer counts), and single-item datasets (the index degenerates to
    one entry, so every conclusion is simultaneously first- and
    last-entry).  Both backends must agree on every one of these.
    """
    n_sources = choose.integer(2, max_sources)
    n_items = choose.integer(1, max_items)
    sources = [f"S{source_id}" for source_id in range(n_sources)]
    claims: list[tuple[str, str, str]] = []
    # Source 0 claims a contiguous prefix of items; clones repeat its
    # claims verbatim, other sources draw freely with few value choices
    # (ties everywhere).
    base_claims = {
        item_id: choose.integer(0, 1)
        for item_id in range(choose.integer(1, n_items))
    }
    for item_id, value in base_claims.items():
        claims.append(("S0", f"item{item_id}", f"v{value}"))
    for source in sources[1:]:
        if choose.boolean():
            for item_id, value in base_claims.items():
                claims.append((source, f"item{item_id}", f"v{value}"))
        else:
            for item_id in choose.subset(0, n_items - 1, n_items):
                claims.append((source, f"item{item_id}", f"v{choose.integer(0, 1)}"))
    menu = choose.choice(ACCURACY_MENUS)
    return _finish_world(
        choose,
        "adversarial",
        sources,
        claims,
        prob_of_value=lambda c: c.choice(EXTREME_PROBABILITIES),
        acc_of_source=lambda c: c.choice(menu),
    )


def large_sparse_world(
    choose: Chooser,
    n_sources: int = 32,
    n_items: int = 12,
    zipf_exponent: float = 1.1,
    coverage: float = 0.8,
    max_values_per_item: int = 3,
) -> World:
    """A many-sources, Zipf-coverage world for the sparse pair layout.

    The rank-``r`` source covers up to ``n_items * coverage / (r+1)**z``
    items (one at minimum), drawn with a quadratic popularity skew
    (low-id items are claimed far more often), so head sources overlap
    heavily on the popular items while the long tail touches one or two
    of them each — the regime where observed pairs are a vanishing
    fraction of the ``n_sources**2`` key space and the dense flat arrays
    stop scaling, yet the scans over the popular-item pairs are long
    enough to be worth vectorizing.  ``coverage`` tunes the
    observed-pair density directly; the grid runs this downsized (tens
    of sources) while the scale benchmark drives the same construction
    to 10k+ sources.
    """
    sources = [f"S{rank}" for rank in range(n_sources)]
    claims: list[tuple[str, str, str]] = []
    for rank, source in enumerate(sources):
        quota = max(
            1, round(n_items * coverage / (rank + 1) ** zipf_exponent)
        )
        items = set()
        for _ in range(quota):
            unit = choose.unit_float(0.0, 1.0)
            items.add(min(int(unit * unit * n_items), n_items - 1))
        for item_id in sorted(items):
            value = choose.integer(0, max_values_per_item - 1)
            claims.append((source, f"item{item_id}", f"v{value}"))
    return _finish_world(
        choose,
        "large_sparse",
        sources,
        claims,
        prob_of_value=lambda c: c.choice(EXTREME_PROBABILITIES),
        acc_of_source=lambda c: c.unit_float(0.05, 0.95),
    )


#: What a saturated ACCU run leaves of an item's losing values.
SATURATED_FALSE_PROBABILITIES = (0.0, 1e-12, 0.02)


def saturated_world(
    choose: Chooser, max_sources: int = 14, max_items: int = 20
) -> World:
    """Dense sources agreeing at probability exactly 1.0, accuracies distinct.

    The regime a converged fusion run leaves behind on Deep-Web data:
    nearly every source covers nearly every item, each item's agreed-on
    value has saturated to ``P = 1.0``, and every source has its own
    accuracy (the first and last sit beyond the clamp, so both clamp
    edges occur).  The bound scans then see long runs of many-provider
    entries sharing one probability — the input on which the numpy
    backend takes its log arguments from a ``(probability, accuracy,
    accuracy)`` grid instead of per incidence — beside a handful of
    few-provider false values that keep the per-incidence path and the
    switch between the two in play.
    """
    n_sources = choose.integer(6, max_sources)
    n_items = choose.integer(6, max_items)
    sources = [f"S{source_id}" for source_id in range(n_sources)]
    claims: list[tuple[str, str, str]] = []
    prob_by_value: dict[tuple[str, str], float] = {}
    for source in sources:
        for item_id in range(n_items):
            roll = choose.unit_float(0.0, 1.0)
            if roll < 0.1:
                continue  # the rare uncovered item
            value = "t" if roll < 0.85 else f"f{choose.integer(0, 1)}"
            key = (f"item{item_id}", value)
            claims.append((source, *key))
            if key not in prob_by_value:
                prob_by_value[key] = (
                    1.0
                    if value == "t"
                    else choose.choice(SATURATED_FALSE_PROBABILITIES)
                )
    # One accuracy per source from its own slot of [0, 1] — distinct by
    # construction; the outer two are pinned past the clamp.
    acc_by_source = {
        source: (rank + choose.unit_float(0.1, 0.9)) / n_sources
        for rank, source in enumerate(sources)
    }
    acc_by_source[sources[0]] = 0.0
    acc_by_source[sources[-1]] = 1.0
    return World(
        kind="saturated",
        sources=sources,
        claims=claims,
        prob_by_value=prob_by_value,
        acc_by_source=acc_by_source,
    )


def shared_run_world(
    n_shared: int, p_true: float, accuracy: float = 0.8
) -> tuple[Dataset, list[float], list[float]]:
    """Two sources sharing ``n_shared`` identical claims at one probability.

    The scan sees ``n_shared`` equal-scored entries, each contributing
    the same amount to the (0, 1) pair — the cleanest dial for placing
    ``C^min`` relative to ``theta_cp``.
    """
    builder = DatasetBuilder()
    builder.ensure_source("S0")
    builder.ensure_source("S1")
    for item_id in range(n_shared):
        builder.add("S0", f"item{item_id}", "v0")
        builder.add("S1", f"item{item_id}", "v0")
    dataset = builder.build()
    return dataset, [p_true] * dataset.n_values, [accuracy, accuracy]


def theta_edge_worlds(
    params, n_shared: int = 3, accuracy: float = 0.8
) -> list[tuple[Dataset, list[float], list[float]]]:
    """Worlds whose conclusion flips between adjacent probability floats.

    Bisects the value probability of :func:`shared_run_world` down to
    *neighbouring float64 values* ``p_lo``/``p_hi`` such that the scan
    concludes early at ``p_lo`` but not at ``p_hi`` — the accumulated
    ``C^min`` lands as exactly on ``theta_cp`` (and, with few shared
    entries, ``C^max`` on ``theta_ind``) as float worlds allow.  Both
    sides of every edge are returned; the two backends must agree on the
    ``>=`` / ``<`` tie-breaking at each one.

    The bisection always runs the *reference* backend: the edge is
    defined by the paper-literal scan, never by the implementation under
    test.
    """
    from dataclasses import replace

    from ..core import detect_bound

    reference_params = (
        params if params.backend == "python" else replace(params, backend="python")
    )

    def concludes_early(p: float) -> bool:
        dataset, probs, accs = shared_run_world(n_shared, p, accuracy)
        result = detect_bound(dataset, probs, accs, reference_params)
        decision = result.decision_for(0, 1)
        return decision is not None and decision.early and decision.copying

    lo, hi = 0.001, 0.999
    if not concludes_early(lo):
        return [shared_run_world(n_shared, lo, accuracy)]
    if concludes_early(hi):
        return [shared_run_world(n_shared, hi, accuracy)]
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if concludes_early(mid):
            lo = mid
        else:
            hi = mid
    return [
        shared_run_world(n_shared, lo, accuracy),
        shared_run_world(n_shared, hi, accuracy),
    ]


# ----------------------------------------------------------------------
# Profile-backed worlds (zipf coverage, heterogeneous accuracies)
# ----------------------------------------------------------------------
#: (profile name, scale) pairs small enough for exhaustive reference runs
#: yet structurally faithful: ``book_cs`` keeps the zipf heavy tail,
#: ``stock_1day`` the dense all-pairs-overlap regime.
PROFILE_MENU = (("book_cs", 0.02), ("stock_1day", 0.004))


def profile_world(name: str, scale: float, seed: int) -> World:
    """A Table V-shaped synthetic world with realised accuracies.

    Probabilities are bootstrapped by voting (the CLI's cold-start
    convention) and accuracies are the generator's *realised* per-source
    accuracies — genuinely heterogeneous, unlike the uniform 0.8 start.
    """
    from ..fusion import vote_probabilities
    from ..synth import make_profile

    synthetic = make_profile(name, scale=scale, seed=seed)
    dataset = synthetic.dataset
    probabilities = vote_probabilities(dataset)
    accuracies = [
        min(max(synthetic.true_accuracies.get(source, 0.5), 0.05), 0.95)
        for source in dataset.source_names
    ]
    return world_from_problem(
        dataset, probabilities, accuracies, kind=f"profile:{name}", seed=seed
    )


# ----------------------------------------------------------------------
# The engine's seeded world stream
# ----------------------------------------------------------------------
#: Generator kinds cycled by :func:`generate_world`.
WORLD_KINDS = (
    "random",
    "adversarial",
    "random",
    "adversarial",
    "shared_run",
    "profile",
    "large_sparse",
    "theta_edge",
    "saturated",
)

_theta_edge_cache: dict[tuple, list] = {}


def generate_world(case_index: int, seed: int) -> World:
    """The ``case_index``-th world of the stream seeded by ``seed``.

    Deterministic: ``(case_index, seed)`` fully determines the world, so
    any case from a grid run can be regenerated without the corpus.
    Cycles through :data:`WORLD_KINDS` so every configuration meets
    random, adversarial (clones/extremes/ties), equal-run, profile
    (zipf/heterogeneous), sparse-coverage (many sources, few observed
    pairs), threshold-edge and saturated (dense agreement at ``P = 1``)
    worlds.
    """
    kind = WORLD_KINDS[case_index % len(WORLD_KINDS)]
    rng = random.Random(seed * 1_000_003 + case_index)
    choose = RandomChooser(rng)
    if kind == "random":
        world = random_world(choose)
    elif kind == "adversarial":
        world = adversarial_world(choose)
    elif kind == "shared_run":
        problem = shared_run_world(
            n_shared=rng.randint(1, 6),
            p_true=choose.choice(EXTREME_PROBABILITIES),
            accuracy=choose.choice((0.5, 0.8, 0.99)),
        )
        world = world_from_problem(*problem, kind="shared_run")
    elif kind == "profile":
        name, scale = PROFILE_MENU[(case_index // len(WORLD_KINDS)) % len(PROFILE_MENU)]
        world = profile_world(name, scale, seed=seed + case_index)
    elif kind == "large_sparse":
        # Downsized for grid budgets; the scale benchmark runs the same
        # construction at 10k+ sources.
        world = large_sparse_world(
            choose,
            n_sources=choose.integer(24, 40),
            n_items=choose.integer(8, 16),
        )
    elif kind == "saturated":
        world = saturated_world(choose)
    else:  # theta_edge
        from ..core.params import CopyParams

        key = (rng.randint(1, 5), choose.choice((0.7, 0.8)))
        if key not in _theta_edge_cache:
            _theta_edge_cache[key] = theta_edge_worlds(
                CopyParams(backend="python"), n_shared=key[0], accuracy=key[1]
            )
        problems = _theta_edge_cache[key]
        world = world_from_problem(
            *problems[case_index % len(problems)], kind="theta_edge"
        )
    world.seed = seed
    return world


# ----------------------------------------------------------------------
# Hypothesis strategies (re-exported by tests/strategies.py)
# ----------------------------------------------------------------------
#: Names served lazily through module ``__getattr__``: hypothesis is a
#: *test* dependency and imports slowly, so neither the conformance
#: engine nor the CLI may pay for it — only the first strategy access
#: (i.e. the test suite) does.
_STRATEGY_EXPORTS = (
    "probabilities",
    "accuracies",
    "datasets",
    "worlds",
    "adversarial_worlds",
    "saturated_worlds",
)

_strategies: dict | None = None


def _hypothesis_strategies() -> dict:
    """Build (once) the hypothesis strategies wrapping the builders."""
    global _strategies
    if _strategies is not None:
        return _strategies
    from hypothesis import strategies as st

    probabilities = st.floats(min_value=0.001, max_value=0.999)
    accuracies = st.floats(min_value=0.01, max_value=0.99)

    @st.composite
    def datasets(
        draw,
        max_sources: int = 8,
        max_items: int = 12,
        max_values_per_item: int = 4,
    ) -> Dataset:
        """Draw a random small dataset (see :func:`build_dataset`)."""
        sources, claims = build_dataset(
            DrawChooser(draw),
            max_sources=max_sources,
            max_items=max_items,
            max_values_per_item=max_values_per_item,
        )
        builder = DatasetBuilder()
        for source in sources:
            builder.ensure_source(source)
        for source, item, value in claims:
            builder.add(source, item, value)
        return builder.build()

    @st.composite
    def worlds(draw, max_sources: int = 8, max_items: int = 12):
        """Draw a (dataset, probabilities, accuracies) detection problem."""
        return random_world(
            DrawChooser(draw), max_sources=max_sources, max_items=max_items
        ).materialize()

    @st.composite
    def adversarial_worlds(draw, max_sources: int = 6, max_items: int = 8):
        """Worlds engineered to sit on the bound scans' decision edges."""
        return adversarial_world(
            DrawChooser(draw), max_sources=max_sources, max_items=max_items
        ).materialize()

    @st.composite
    def saturated_worlds(draw, max_sources: int = 14, max_items: int = 20):
        """Dense worlds saturated at ``P = 1`` with distinct accuracies."""
        return saturated_world(
            DrawChooser(draw), max_sources=max_sources, max_items=max_items
        ).materialize()

    _strategies = {
        "probabilities": probabilities,
        "accuracies": accuracies,
        "datasets": datasets,
        "worlds": worlds,
        "adversarial_worlds": adversarial_worlds,
        "saturated_worlds": saturated_worlds,
    }
    return _strategies


def __getattr__(name: str):
    if name in _STRATEGY_EXPORTS:
        return _hypothesis_strategies()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
