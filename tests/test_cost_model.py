"""The paper's cost model, pinned: counts are exact, not timed.

``tests/data/cost_counts.json`` (built by ``tests/make_cost_counts.py``)
holds each benchmark workload's per-round ``computations``,
``values_examined`` and scored pairs, its round count, the kind of every
snapshot it publishes and the bytes those take, on the registry's tiny
worlds, and the computations of the paper's Figure 2 on the paper
benches' worlds.  A change that moves one of them fails here unless it
re-commits the file and says why.
"""

from __future__ import annotations

import json

import pytest

from tests.make_cost_counts import (
    COUNTS_PATH,
    FIGURE_2,
    FIGURE_2_METHODS,
    figure_2_counts,
    measure,
)

PINNED = json.loads(COUNTS_PATH.read_text())
FIGURE_2_PINS = PINNED.pop(FIGURE_2)


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


def test_figure_2_counts_match_the_pins():
    assert figure_2_counts() == FIGURE_2_PINS


def test_figure_2_has_the_papers_shape():
    """What ``bench_fig02_single_round.py`` asserts, in tier-1: BOUND+
    does fewer computations than BOUND, and HYBRID at most 1.2 x BOUND+,
    on every world."""
    from benchmarks.conftest import BENCH_SCALES

    assert sorted(FIGURE_2_PINS) == sorted(BENCH_SCALES)
    for profile, counts in FIGURE_2_PINS.items():
        assert list(counts) == list(FIGURE_2_METHODS), profile
        assert counts["bound+"] < counts["bound"], profile
        assert counts["hybrid"] <= 1.2 * counts["bound+"], profile
