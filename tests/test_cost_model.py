"""The paper's cost model, pinned: counts are exact, not timed.

``tests/data/cost_counts.json`` (built by ``tests/make_cost_counts.py``)
holds each benchmark workload's per-round ``computations``,
``values_examined`` and scored pairs, its round count, the kind of every
snapshot it publishes and the bytes those take, on the registry's tiny
worlds, and the computations of the paper's Figure 2, Table VII and
Table VIII on the paper benches' worlds.  A change that moves one of them fails here unless it
re-commits the file and says why.
"""

from __future__ import annotations

import json

import pytest

from tests.make_cost_counts import (
    COUNTS_PATH,
    FIGURE_2,
    FIGURE_2_METHODS,
    TABLE_7,
    TABLE_7_METHODS,
    TABLE_8,
    TABLE_8_PASSES,
    figure_2_counts,
    measure,
    table_7_counts,
    table_8_counts,
)

PINNED = json.loads(COUNTS_PATH.read_text())
FIGURE_2_PINS = PINNED.pop(FIGURE_2)
TABLE_8_PINS = PINNED.pop(TABLE_8)
TABLE_7_PINS = PINNED.pop(TABLE_7)


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


def test_table_8_counts_match_the_pins():
    assert table_8_counts() == TABLE_8_PINS


def test_table_8_has_the_papers_shape():
    """What ``bench_table08_incremental.py`` asserts, in tier-1 and in
    computations rather than seconds: the first pass concludes at least
    70% of INCREMENTAL's pairs, and each round from the third on costs
    INCREMENTAL fewer computations than HYBRID's same round."""
    from benchmarks.conftest import BENCH_SCALES

    assert sorted(TABLE_8_PINS) == sorted(BENCH_SCALES)
    for profile, counts in TABLE_8_PINS.items():
        assert list(counts) == ["hybrid", "incremental", *TABLE_8_PASSES], profile
        assert counts["done_pass1"] >= 0.7 * counts["pairs_total"], profile
        later = list(zip(counts["incremental"], counts["hybrid"]))[2:]
        assert later, profile
        for incremental, hybrid in later:
            assert incremental < hybrid, profile


def test_table_7_counts_match_the_pins():
    assert table_7_counts() == TABLE_7_PINS


def test_table_7_has_the_papers_cascade():
    """Table VII's cascade in computations, on every world: HYBRID below
    INDEX, INCREMENTAL below HYBRID, SCALESAMPLE below INCREMENTAL.
    INDEX is not asserted below PAIRWISE: on ``book_full`` it costs more
    per round (two updates per opened pair on top of its incidences,
    where PAIRWISE charges nothing for a pair sharing no item)."""
    from benchmarks.conftest import BENCH_SCALES

    assert sorted(TABLE_7_PINS) == sorted(BENCH_SCALES)
    for profile, runs in TABLE_7_PINS.items():
        assert list(runs) == list(TABLE_7_METHODS), profile
        cost = {method: run["computations"] for method, run in runs.items()}
        assert cost["hybrid"] < cost["index"], profile
        assert cost["incremental"] < cost["hybrid"], profile
        assert cost["scalesample"] < cost["incremental"], profile
