"""Set-overlap counting: the reference l(S1, S2) counter."""

from hypothesis import given, settings

from repro.simjoin import count_shared_items
from tests.strategies import datasets


def _bruteforce_shared_items(ds):
    counts = {}
    for s1 in range(ds.n_sources):
        for s2 in range(s1 + 1, ds.n_sources):
            shared = len(set(ds.claims[s1]) & set(ds.claims[s2]))
            if shared:
                counts[(s1, s2)] = shared
    return counts


class TestSharedCounts:
    @given(ds=datasets())
    @settings(max_examples=60, deadline=None)
    def test_items_match_bruteforce(self, ds):
        assert count_shared_items(ds) == _bruteforce_shared_items(ds)

    def test_motivating_example_counts(self, example):
        counts = count_shared_items(example)
        assert sum(counts.values()) == 181  # see test_pairwise notes
