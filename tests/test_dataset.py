"""Dataset model: interning, derived structures, projection, statistics."""

import pytest
from hypothesis import given

from repro.data import Dataset, DatasetBuilder
from tests.strategies import datasets


class TestBuilder:
    def test_empty_builder(self):
        ds = DatasetBuilder().build()
        assert ds.n_sources == 0
        assert ds.n_items == 0
        assert ds.n_values == 0

    def test_value_interning_shared(self):
        b = DatasetBuilder()
        b.add("S0", "NJ", "Trenton")
        b.add("S1", "NJ", "Trenton")
        ds = b.build()
        assert ds.n_values == 1
        assert ds.providers[0] == [0, 1]

    def test_same_label_different_items_distinct(self):
        b = DatasetBuilder()
        b.add("S0", "NJ", "Springfield")
        b.add("S0", "IL", "Springfield")
        ds = b.build()
        assert ds.n_values == 2

    def test_last_writer_wins(self):
        b = DatasetBuilder()
        b.add("S0", "NJ", "Trenton")
        b.add("S0", "NJ", "Newark")
        ds = b.build()
        assert len(ds.claims[0]) == 1
        assert ds.value_label[ds.claims[0][0]] == "Newark"

    def test_ensure_source_without_claims(self):
        b = DatasetBuilder()
        b.ensure_source("empty")
        b.add("S1", "A", "x")
        ds = b.build()
        assert ds.n_sources == 2
        assert ds.claims[0] == {}

    def test_claim_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                source_names=["S0", "S1"],
                item_names=["A"],
                claims=[{0: 0}],
                value_item=[0],
                value_label=["x"],
            )


class TestDerived:
    def test_items_per_source(self, example):
        by_name = dict(zip(example.source_names, example.items_per_source))
        assert by_name["S0"] == 4  # S0 misses FL
        assert by_name["S1"] == 5
        assert by_name["S9"] == 3

    def test_providers_disjoint_per_item(self, example):
        """A source appears in at most one value per item (Definition 3.2)."""
        for values in example.item_value_table():
            seen: set[int] = set()
            for value_id in values:
                for source in example.providers[value_id]:
                    assert source not in seen
                    seen.add(source)

    @given(ds=datasets())
    def test_providers_match_claims(self, ds):
        for value_id, providers in enumerate(ds.providers):
            item_id = ds.value_item[value_id]
            for source in providers:
                assert ds.claims[source][item_id] == value_id

    @given(ds=datasets())
    def test_iter_claims_complete(self, ds):
        triples = list(ds.iter_claims())
        assert len(triples) == sum(len(c) for c in ds.claims)
        for source, item, value in triples:
            assert ds.claims[source][item] == value

    def test_item_value_table(self, example):
        table = example.item_value_table()
        nj = example.item_names.index("NJ")
        labels = {example.value_label[v] for v in table[nj]}
        assert labels == {"Trenton", "Atlantic", "Union"}


class TestStats:
    def test_motivating_example(self, example):
        stats = example.stats()
        assert stats.n_sources == 10
        assert stats.n_items == 5
        assert stats.n_distinct_values == 16
        assert stats.n_index_entries == 13  # Table III has 13 entries
        assert stats.n_claims == 45

    @given(ds=datasets())
    def test_index_entries_at_most_values(self, ds):
        stats = ds.stats()
        assert 0 <= stats.n_index_entries <= stats.n_distinct_values


class TestProjection:
    def test_keeps_source_alignment(self, example):
        nj = example.item_names.index("NJ")
        projected = example.project_items([nj])
        assert projected.source_names == example.source_names
        # S6 provides nothing for NJ
        s6 = projected.source_names.index("S6")
        assert projected.claims[s6] == {}

    def test_projected_claims_match(self, example):
        nj = example.item_names.index("NJ")
        projected = example.project_items([nj])
        s0 = projected.source_names.index("S0")
        (item_id, value_id), = projected.claims[s0].items()
        assert projected.item_names[item_id] == "NJ"
        assert projected.value_label[value_id] == "Trenton"

    @given(ds=datasets())
    def test_projection_to_all_items_preserves_claims(self, ds):
        projected = ds.project_items(range(ds.n_items))
        assert sum(len(c) for c in projected.claims) == sum(
            len(c) for c in ds.claims
        )

    @given(ds=datasets())
    def test_projection_to_nothing(self, ds):
        projected = ds.project_items([])
        assert all(not claim for claim in projected.claims)
