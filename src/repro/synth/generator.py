"""Synthetic world generator with planted copying.

The paper's datasets (AbeBooks crawls, Deep-Web stock quotes) are not
redistributable, so the benchmark harness generates worlds with the same
structural marginals (see DESIGN.md, "Substitutions"):

* a domain of items, each with one true value and ``n_false_values``
  candidate false values;
* *independent* sources with configurable accuracy and coverage
  distributions — coverage is the lever that separates the book regime
  (heavy-tailed: most sources tiny, a few aggregators) from the stock
  regime (everyone covers most items);
* *copier* groups: each group has an independent original and several
  copiers that copy a ``copy_selectivity`` fraction of an upstream
  member's claims — errors included, which is exactly the signal copy
  detection keys on — and fill the rest of their coverage with their own
  (error-prone) claims.  A copier may copy from a previously created
  copier of its group, yielding transitive copying.

Everything is driven by a seeded :class:`numpy.random.Generator`; the same
config and seed always produce byte-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..data import Dataset, DatasetBuilder, GoldStandard

CoverageModel = Literal["zipf", "uniform"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic world.

    Attributes:
        n_items: number of data items.
        n_independent_sources: sources drawn independently of each other.
        n_false_values: size of each item's false-value domain (should
            match ``CopyParams.n`` when running detection).
        accuracy_range: independent sources draw accuracy uniformly from
            this range.
        coverage_model: ``"zipf"`` draws heavy-tailed coverage (book
            regime); ``"uniform"`` draws from ``coverage_range`` (stock
            regime).
        coverage_range: (min, max) fraction of items covered per source.
        zipf_exponent: tail exponent for the zipf coverage model (larger
            means more tiny sources).
        n_copier_groups: number of planted copying groups.
        copiers_per_group: copiers in each group.
        copy_selectivity: probability a copier copies a given upstream
            item (the model's ``s``).
        copier_accuracy: accuracy of a copier's own (non-copied) claims.
        copier_extra_coverage: fraction of items a copier adds from its
            own observation on top of the copied ones.
        gold_size: number of items exposed in the gold standard.
        seed: RNG seed.
    """

    n_items: int = 1000
    n_independent_sources: int = 40
    n_false_values: int = 50
    accuracy_range: tuple[float, float] = (0.55, 0.95)
    coverage_model: CoverageModel = "uniform"
    coverage_range: tuple[float, float] = (0.5, 1.0)
    zipf_exponent: float = 1.6
    n_copier_groups: int = 3
    copiers_per_group: int = 2
    copy_selectivity: float = 0.8
    copier_accuracy: float = 0.6
    copier_extra_coverage: float = 0.1
    gold_size: int = 200
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be positive")
        if self.n_independent_sources < 1:
            raise ValueError("need at least one independent source")
        if not 0.0 < self.copy_selectivity <= 1.0:
            raise ValueError("copy_selectivity must be in (0, 1]")
        low, high = self.accuracy_range
        if not 0.0 < low <= high < 1.0:
            raise ValueError("accuracy_range must satisfy 0 < low <= high < 1")


@dataclass
class SyntheticWorld:
    """A generated dataset plus all the ground truth the generator knows.

    Attributes:
        dataset: the claims.
        gold: gold standard over ``config.gold_size`` items.
        copy_pairs: planted *directed* copying as ``(copier, original)``
            source-name pairs (direct edges only; transitive pairs follow
            from chains).
        true_accuracies: realised accuracy per source name — the fraction
            of its claims that are true (useful for diagnostics).
        config: the generating configuration.
    """

    dataset: Dataset
    gold: GoldStandard
    copy_pairs: set[tuple[str, str]]
    true_accuracies: dict[str, float]
    config: GeneratorConfig

    def copy_pair_ids(self) -> set[tuple[int, int]]:
        """Planted copying pairs as sorted source-id tuples (undirected)."""
        ids = {name: i for i, name in enumerate(self.dataset.source_names)}
        return {
            (min(ids[a], ids[b]), max(ids[a], ids[b]))
            for a, b in self.copy_pairs
        }


def _true_value(item: int) -> str:
    return f"i{item}/true"


def _false_value(item: int, k: int) -> str:
    return f"i{item}/f{k}"


class _WorldBuilder:
    """Internal state while generating one world."""

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.builder = DatasetBuilder()
        self.claims: dict[str, dict[int, str]] = {}
        self.copy_pairs: set[tuple[str, str]] = set()

    def _sample_items(self, count: int) -> np.ndarray:
        count = int(min(max(count, 1), self.config.n_items))
        return self.rng.choice(self.config.n_items, size=count, replace=False)

    def _coverage_count(self) -> int:
        cfg = self.config
        if cfg.coverage_model == "uniform":
            fraction = self.rng.uniform(*cfg.coverage_range)
        else:  # zipf-style heavy tail, clipped into the coverage range
            raw = self.rng.pareto(cfg.zipf_exponent) + 1.0
            low, high = cfg.coverage_range
            fraction = min(low * raw, high)
        return max(int(round(fraction * cfg.n_items)), 1)

    def _own_claims(self, items: np.ndarray, accuracy: float) -> dict[int, str]:
        """Claims a source makes from its own observation of the world."""
        cfg = self.config
        is_true = self.rng.random(len(items)) < accuracy
        false_picks = self.rng.integers(0, cfg.n_false_values, size=len(items))
        claims: dict[int, str] = {}
        for item, ok, pick in zip(items.tolist(), is_true.tolist(), false_picks.tolist()):
            claims[item] = _true_value(item) if ok else _false_value(item, pick)
        return claims

    def add_independent(self, name: str) -> None:
        accuracy = self.rng.uniform(*self.config.accuracy_range)
        items = self._sample_items(self._coverage_count())
        self.claims[name] = self._own_claims(items, accuracy)

    def add_copier(self, name: str, upstream: str) -> None:
        cfg = self.config
        upstream_claims = self.claims[upstream]
        copied: dict[int, str] = {}
        mask = self.rng.random(len(upstream_claims)) < cfg.copy_selectivity
        for (item, value), take in zip(upstream_claims.items(), mask.tolist()):
            if take:
                copied[item] = value
        extra = self._sample_items(int(cfg.copier_extra_coverage * cfg.n_items))
        own_items = np.array(
            [item for item in extra.tolist() if item not in copied], dtype=int
        )
        own = (
            self._own_claims(own_items, cfg.copier_accuracy)
            if len(own_items)
            else {}
        )
        claims = dict(own)
        claims.update(copied)  # copied values win where they overlap
        self.claims[name] = claims
        self.copy_pairs.add((name, upstream))

    def build(self) -> SyntheticWorld:
        cfg = self.config
        for name in sorted(self.claims):
            self.builder.ensure_source(name)
        for name, claims in self.claims.items():
            for item, value in claims.items():
                self.builder.add(name, f"item{item}", value)
        dataset = self.builder.build()

        gold_items = self.rng.choice(
            cfg.n_items, size=min(cfg.gold_size, cfg.n_items), replace=False
        )
        gold = GoldStandard(
            truths={f"item{i}": _true_value(i) for i in gold_items.tolist()}
        )
        true_accuracies = {
            name: (
                sum(1 for item, v in claims.items() if v == _true_value(item))
                / len(claims)
                if claims
                else 0.0
            )
            for name, claims in self.claims.items()
        }
        return SyntheticWorld(
            dataset=dataset,
            gold=gold,
            copy_pairs=self.copy_pairs,
            true_accuracies=true_accuracies,
            config=cfg,
        )


def generate(config: GeneratorConfig) -> SyntheticWorld:
    """Generate a synthetic world from a configuration.

    Source naming: independent sources are ``src000``, ``src001``, ...;
    copiers are ``copyG.K`` for group ``G``, member ``K``.  Originals are
    drawn from the *large* end of the coverage distribution (skipping the
    very top) — in the wild, syndicators copy sizeable aggregators, and a
    tiny original would leave copiers with too little shared data to ever
    be detectable.
    """
    world = _WorldBuilder(config)
    for i in range(config.n_independent_sources):
        world.add_independent(f"src{i:03d}")
    by_size = sorted(world.claims, key=lambda name: -len(world.claims[name]))
    # Skip the very largest sources: copying the single dominant
    # aggregator would let one source's errors swamp the whole world.
    offset = max(1, len(by_size) // 10)

    rng = world.rng
    for group in range(config.n_copier_groups):
        original = by_size[(offset + group) % len(by_size)]
        members = [original]
        for k in range(config.copiers_per_group):
            name = f"copy{group}.{k}"
            if len(members) > 1:
                upstream = members[int(rng.integers(0, len(members)))]
            else:
                upstream = original
            world.add_copier(name, upstream)
            members.append(name)
    return world.build()
