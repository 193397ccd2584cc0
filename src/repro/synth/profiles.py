"""Dataset profiles shaped like the paper's four evaluation datasets.

Table V of the paper:

    ============  ======  ========  =============  ==============
    dataset       #Srcs   #Items    #Dist-values   #Index-entries
    ============  ======  ========  =============  ==============
    Book-CS          894     2,528        14,930          7,398
    Stock-1day        55    16,000       104,611         40,834
    Book-full      3,182   147,431       162,961         48,683
    Stock-2wk         55   160,000       915,118        405,537
    ============  ======  ========  =============  ==============

Each profile reproduces the dataset's *regime* rather than its absolute
size:

* **book** profiles — many sources with heavy-tailed coverage (the paper:
  85% of Book-CS sources cover at most 1% of the books), so the vast
  majority of source pairs share nothing and INDEX shines; Book-full has
  far fewer conflicting values per item (1.1 vs 5.9).
* **stock** profiles — few sources, all covering most items (the paper:
  80% of stock sources cover over half the items), so every pair shares
  thousands of items and the BOUND family's early termination matters.

Every profile takes a ``scale`` factor multiplying the item and source
counts, because pure-Python PAIRWISE at full Table V size takes hours
where the paper's Java took minutes; EXPERIMENTS.md records the scales
used.  At ``scale=1.0`` the source/item counts match Table V.
"""

from __future__ import annotations

from .generator import GeneratorConfig, SyntheticWorld, generate

#: Names usable with :func:`make_profile` and the CLI/benchmarks.
PROFILES = ("book_cs", "book_full", "stock_1day", "stock_2wk")


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(int(round(value * scale)), minimum)


def book_cs(scale: float = 1.0, seed: int = 7) -> SyntheticWorld:
    """A Book-CS-shaped world: many tiny sources, strong conflicts.

    894 sources x 2,528 items at ``scale=1.0``; copier cliques planted
    among mid-size sources.
    """
    config = GeneratorConfig(
        n_items=_scaled(2528, scale),
        n_independent_sources=_scaled(894, scale, minimum=10) - 4 * 3,
        n_false_values=50,
        accuracy_range=(0.35, 0.85),
        coverage_model="zipf",
        coverage_range=(0.003, 0.5),
        zipf_exponent=1.0,
        n_copier_groups=4,
        copiers_per_group=3,
        copy_selectivity=0.8,
        copier_accuracy=0.55,
        copier_extra_coverage=0.02,
        gold_size=100,
        seed=seed,
    )
    return generate(config)


def book_full(scale: float = 1.0, seed: int = 11) -> SyntheticWorld:
    """A Book-full-shaped world: even more sources, sparse conflicts.

    3,182 sources x 147,431 items at ``scale=1.0``; on average only ~1.1
    conflicting values per item, achieved with higher accuracies and very
    low coverage.
    """
    config = GeneratorConfig(
        n_items=_scaled(147431, scale),
        n_independent_sources=_scaled(3182, scale, minimum=20) - 5 * 3,
        n_false_values=50,
        accuracy_range=(0.75, 0.99),
        coverage_model="zipf",
        coverage_range=(0.0008, 0.3),
        zipf_exponent=1.2,
        n_copier_groups=5,
        copiers_per_group=3,
        copy_selectivity=0.8,
        copier_accuracy=0.7,
        copier_extra_coverage=0.005,
        gold_size=100,
        seed=seed,
    )
    return generate(config)


def _stock(n_items: int, scale: float, seed: int) -> SyntheticWorld:
    """The stock panel — 55 dense sources, heavy conflicts — over
    ``n_items`` items at ``scale=1.0`` (the item count scales; the source
    count stays 55 until scale drops below 0.1, mirroring how the paper's
    stock sources are a fixed panel)."""
    n_sources = 55 if scale >= 0.1 else max(20, _scaled(55, scale * 10))
    config = GeneratorConfig(
        n_items=_scaled(n_items, scale),
        n_independent_sources=n_sources - 3 * 2,
        n_false_values=50,
        accuracy_range=(0.7, 0.97),
        coverage_model="uniform",
        coverage_range=(0.5, 1.0),
        n_copier_groups=3,
        copiers_per_group=2,
        copy_selectivity=0.8,
        copier_accuracy=0.6,
        copier_extra_coverage=0.3,
        gold_size=200,
        seed=seed,
    )
    return generate(config)


def stock_1day(scale: float = 1.0, seed: int = 13) -> SyntheticWorld:
    """A Stock-1day-shaped world: the stock panel x 16,000 items."""
    return _stock(16000, scale, seed)


def stock_2wk(scale: float = 1.0, seed: int = 17) -> SyntheticWorld:
    """A Stock-2wk-shaped world: the stock panel over 10x the items."""
    return _stock(160000, scale, seed)


_PROFILE_FUNCS = {
    "book_cs": book_cs,
    "book_full": book_full,
    "stock_1day": stock_1day,
    "stock_2wk": stock_2wk,
}


def make_profile(name: str, scale: float = 1.0, seed: int | None = None) -> SyntheticWorld:
    """Build a named profile (see :data:`PROFILES`).

    Raises:
        ValueError: for an unknown profile name.
    """
    try:
        func = _PROFILE_FUNCS[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {PROFILES}")
    if seed is None:
        return func(scale)
    return func(scale, seed=seed)
