"""Synthetic generator: determinism, config validation, planted structure."""

import pytest

from repro.core import SingleRoundDetector
from repro.fusion import run_fusion
from repro.synth import (
    PROFILES,
    GeneratorConfig,
    generate,
    make_profile,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_items": 0},
            {"n_independent_sources": 0},
            {"copy_selectivity": 0.0},
            {"copy_selectivity": 1.5},
            {"accuracy_range": (0.0, 0.9)},
            {"accuracy_range": (0.9, 0.5)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_zero_copier_groups_allowed(self):
        world = generate(GeneratorConfig(n_items=50, n_copier_groups=0, seed=1))
        assert world.copy_pairs == set()


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = GeneratorConfig(n_items=50, n_independent_sources=6, seed=9)
        a = generate(config)
        b = generate(config)
        assert a.dataset.source_names == b.dataset.source_names
        assert a.dataset.claims == b.dataset.claims
        assert a.gold.truths == b.gold.truths

    def test_different_seed_different_world(self):
        a = generate(GeneratorConfig(n_items=50, seed=1))
        b = generate(GeneratorConfig(n_items=50, seed=2))
        assert a.dataset.claims != b.dataset.claims


class TestPlantedStructure:
    @pytest.fixture(scope="class")
    def world(self):
        return generate(
            GeneratorConfig(
                n_items=200,
                n_independent_sources=10,
                coverage_range=(0.6, 1.0),
                n_copier_groups=2,
                copiers_per_group=2,
                seed=5,
            )
        )

    def test_copy_pairs_recorded(self, world):
        assert len(world.copy_pairs) == 4  # 2 groups x 2 copiers

    def test_copiers_share_values_with_upstream(self, world):
        ds = world.dataset
        names = ds.source_names
        for copier, upstream in world.copy_pairs:
            c, u = names.index(copier), names.index(upstream)
            shared_values = sum(
                1
                for item, value in ds.claims[c].items()
                if ds.claims[u].get(item) == value
            )
            assert shared_values >= 0.5 * len(ds.claims[u])

    def test_gold_matches_generated_truths(self, world):
        ds = world.dataset
        resolved = world.gold.true_value_ids(ds)
        assert resolved, "gold standard should cover claimed items"
        for item_id, value_id in resolved.items():
            if value_id is not None:
                assert ds.value_label[value_id].endswith("/true")

    def test_true_accuracies_within_configured_band(self, world):
        for name, acc in world.true_accuracies.items():
            if name.startswith("src"):
                assert 0.3 <= acc <= 1.0

    def test_detection_finds_planted_copying(self, world, params):
        """End to end: the detector recovers (most of) the planted pairs."""
        result = run_fusion(
            world.dataset,
            params,
            detector=SingleRoundDetector(params, method="index"),
        )
        found = result.final_detection().copying_pairs()
        planted = world.copy_pair_ids()
        assert len(found & planted) >= len(planted) // 2


class TestProfiles:
    @pytest.mark.parametrize("name", PROFILES)
    def test_profiles_build(self, name):
        world = make_profile(name, scale=0.02)
        stats = world.dataset.stats()
        assert stats.n_sources > 0
        assert stats.n_claims > 0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_profile("nope")

    def test_book_profile_is_sparse(self):
        """Book regime: most sources are tiny, most pairs share nothing."""
        world = make_profile("book_cs", scale=0.3)
        ds = world.dataset
        median_coverage = sorted(ds.items_per_source)[ds.n_sources // 2]
        assert median_coverage <= 0.05 * ds.n_items

    def test_stock_profile_is_dense(self):
        """Stock regime: every source covers at least half the items."""
        world = make_profile("stock_1day", scale=0.02)
        ds = world.dataset
        dense = sum(1 for c in ds.items_per_source if c >= 0.5 * ds.n_items)
        assert dense / ds.n_sources >= 0.8

    def test_book_full_low_conflicts(self):
        world = make_profile("book_full", scale=0.03)
        assert world.dataset.stats().avg_conflicts_per_item < 2.0

    def test_scale_changes_size(self):
        small = make_profile("book_cs", scale=0.05)
        large = make_profile("book_cs", scale=0.2)
        assert large.dataset.n_items > small.dataset.n_items
        assert large.dataset.n_sources > small.dataset.n_sources
