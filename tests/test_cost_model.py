"""The paper's cost model, pinned: counts are exact, not timed.

``tests/data/cost_counts.json`` (built by ``tests/make_cost_counts.py``)
holds each benchmark workload's per-round ``computations``,
``values_examined`` and scored pairs, its round count, the kind of every
snapshot it publishes and the bytes those take, on the registry's tiny
worlds.  A change that moves one of them fails here unless it
re-commits the file and says why.
"""

from __future__ import annotations

import json

import pytest

from tests.make_cost_counts import COUNTS_PATH, measure

PINNED = json.loads(COUNTS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_counts_match_the_pins(name):
    assert measure(name) == PINNED[name]


def test_the_pins_cover_every_workload_and_a_converged_delta():
    from benchmarks.e2e.registry import WORKLOADS

    assert sorted(PINNED) == sorted(WORKLOADS)
    for name, pins in PINNED.items():
        assert len(pins["kinds"]) == len(pins["rounds"]), name
        assert pins["kinds"][0] == "full", name
    # A full written where a delta belongs shows up on these two.
    assert PINNED["batch_wide"]["kinds"][-1] == "delta"
    assert PINNED["batch_stock"]["kinds"][-1] == "delta"
