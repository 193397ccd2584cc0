"""Gold standards: id resolution and fusion accuracy scoring."""

from repro.data import GoldStandard, motivating_example


class TestResolution:
    def test_resolves_known_values(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"NJ": "Trenton"})
        resolved = gold.true_value_ids(ds)
        nj = ds.item_names.index("NJ")
        assert set(resolved) == {nj}
        assert ds.value_label[resolved[nj]] == "Trenton"

    def test_unclaimed_truth_resolves_to_none(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"NJ": "Princeton"})  # nobody claims it
        nj = ds.item_names.index("NJ")
        assert gold.true_value_ids(ds)[nj] is None

    def test_unknown_item_ignored(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"CA": "Sacramento"})
        assert gold.true_value_ids(ds) == {}


class TestAccuracy:
    def _value_id(self, ds, item, label):
        item_id = ds.item_names.index(item)
        for value_id in ds.item_value_table()[item_id]:
            if ds.value_label[value_id] == label:
                return value_id
        raise AssertionError(f"{item}.{label} not in dataset")

    def test_all_correct(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"NJ": "Trenton", "AZ": "Phoenix"})
        chosen = {
            ds.item_names.index("NJ"): self._value_id(ds, "NJ", "Trenton"),
            ds.item_names.index("AZ"): self._value_id(ds, "AZ", "Phoenix"),
        }
        assert gold.accuracy_of(ds, chosen) == 1.0

    def test_half_correct(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"NJ": "Trenton", "AZ": "Phoenix"})
        chosen = {
            ds.item_names.index("NJ"): self._value_id(ds, "NJ", "Atlantic"),
            ds.item_names.index("AZ"): self._value_id(ds, "AZ", "Phoenix"),
        }
        assert gold.accuracy_of(ds, chosen) == 0.5

    def test_missing_choice_counts_wrong(self):
        ds = motivating_example()
        gold = GoldStandard(truths={"NJ": "Trenton"})
        assert gold.accuracy_of(ds, {}) == 0.0

    def test_empty_gold(self):
        ds = motivating_example()
        assert GoldStandard(truths={}).accuracy_of(ds, {}) == 0.0

    def test_len_and_contains(self):
        gold = GoldStandard(truths={"NJ": "Trenton"})
        assert len(gold) == 1
        assert "NJ" in gold
        assert "AZ" not in gold
