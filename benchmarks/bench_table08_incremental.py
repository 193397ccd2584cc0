"""Table VIII — INCREMENTAL vs HYBRID per round, and pass termination.

Paper shape: from round 3 on, INCREMENTAL's per-round detection time is a
small fraction of HYBRID's (3-14%), and the overwhelming majority of
pairs re-confirm their verdict in the first pass (86-99%).
"""

from __future__ import annotations

import pytest

from repro.core import IncrementalDetector, SingleRoundDetector
from repro.eval import render_table
from repro.fusion import FusionConfig, run_fusion

from conftest import BENCH_SCALES, emit_report

PROFILES = tuple(BENCH_SCALES)
_results: dict[str, tuple[object, object, object]] = {}


@pytest.mark.parametrize("profile", PROFILES)
def test_run_both_loops(benchmark, worlds, bench_params, profile):
    world = worlds[profile]
    config = FusionConfig(max_rounds=8)

    def execute():
        hybrid = run_fusion(
            world.dataset,
            bench_params,
            detector=SingleRoundDetector(bench_params, method="hybrid"),
            config=config,
        )
        detector = IncrementalDetector(bench_params)
        incremental = run_fusion(
            world.dataset, bench_params, detector=detector, config=config
        )
        return hybrid, incremental, detector

    _results[profile] = benchmark.pedantic(execute, rounds=1, iterations=1)


def test_report_table08(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratio_rows = []
    pass_rows = []
    for profile in PROFILES:
        hybrid, incremental, detector = _results[profile]
        hybrid_rounds = {r.round_no: r.detection_seconds for r in hybrid.rounds}
        row: list[object] = [profile]
        for round_no in range(3, 7):
            inc_round = next(
                (r for r in incremental.rounds if r.round_no == round_no), None
            )
            hy_seconds = hybrid_rounds.get(round_no)
            if inc_round is None or not hy_seconds:
                row.append("-")
            else:
                row.append(f"{inc_round.detection_seconds / hy_seconds:.1%}")
        ratio_rows.append(row)

        history = detector.state.history if detector.state else []
        total = sum(s.pairs_total for s in history) or 1
        pass_rows.append(
            [
                profile,
                f"{sum(s.done_pass1 for s in history) / total:.1%}",
                f"{sum(s.done_pass2 for s in history) / total:.1%}",
                f"{sum(s.done_pass3 for s in history) / total:.1%}",
                sum(s.flips for s in history),
            ]
        )

    emit_report(
        "bench_table08_incremental",
        render_table(
            "Table VIII (reproduced): INCREMENTAL/HYBRID per-round time ratio",
            ["dataset", "round 3", "round 4", "round 5", "round 6"],
            ratio_rows,
        ),
    )
    emit_report(
        "bench_table08_incremental",
        render_table(
            "Table VIII (reproduced): pairs terminated per pass",
            ["dataset", "pass 1", "pass 2", "pass 3", "decision flips"],
            pass_rows,
        ),
    )

    # Shape assertions: pass 1 dominates; incremental rounds are cheaper.
    for profile in PROFILES:
        hybrid, incremental, detector = _results[profile]
        history = detector.state.history if detector.state else []
        if not history:
            continue
        total = sum(s.pairs_total for s in history)
        pass1 = sum(s.done_pass1 for s in history)
        assert pass1 / total >= 0.7, profile
        # Rounds >= 3 both loops ran: the patch must cost less than
        # starting over.
        patched = {r.round_no: r.detection_seconds for r in incremental.rounds[2:]}
        scratch = {r.round_no: r.detection_seconds for r in hybrid.rounds[2:]}
        shared = patched.keys() & scratch.keys()
        assert shared, profile
        assert sum(patched[r] for r in shared) < sum(scratch[r] for r in shared), profile
