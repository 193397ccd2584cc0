"""Harness self-test: ``python3 benchmarks/e2e/selftest.py`` (~20 s).

Run explicitly — tier-1's ``testpaths`` stays ``tests/``.  A tiny world goes
through all four drivers, untraced and traced, and the pure arithmetic the
metrics rest on is checked on hand-built inputs.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time

import run
from registry import END_TO_END, PER_LAYER, WORKLOADS, manifest
from spans import CALL_SITES, TraceTableError, Tracer, installed, self_times
from stats import iqr_share, percentile, tail_percentile, visible_at, worse_by

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_matches_registry():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest(), "BENCHMARK.json differs from registry.manifest()"
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in committed["end_to_end"] + committed["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in committed["end_to_end"]
    )


def test_percentile_rule():
    assert tail_percentile(99) is None  # 9.9 samples beyond p90
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    sample = list(range(1, 101))
    assert percentile(sample, 50) == 50
    assert percentile(sample, 90) == 90
    assert percentile(sample, 99) == 99
    assert percentile([5.0], 99) == 5.0


def test_spread_and_gap():
    assert abs(iqr_share([10, 10, 10, 10, 12, 8, 10, 10, 10, 10])) < 0.06
    assert worse_by(10.0, 11.0, "lower") > 0 > worse_by(10.0, 11.0, "higher")


def test_freshness_mapping():
    # Three epochs covering 10, 20 and 10 fed claims; claims 40+ never seen.
    seen = visible_at([1.0, 2.0, 3.0], [10, 20, 10], 45)
    assert seen[0] == seen[9] == 1.0
    assert seen[10] == seen[29] == 2.0
    assert seen[30] == seen[39] == 3.0
    assert seen[40:] == [None] * 5
    assert visible_at([], [], 2) == [None, None]


def test_self_time_arithmetic():
    def s(i, parent, start, end, layer="x"):
        return {"id": i, "name": f"s{i}", "layer": layer, "parent": parent,
                "start": start, "end": end, "run_id": "t"}

    spans = [
        s(0, None, 0.0, 10.0),
        s(1, 0, 1.0, 4.0),
        s(2, 0, 3.0, 6.0),   # overlaps span 1: the union covers 1..6
        s(3, 2, 3.5, 4.5),
        s(4, 0, 8.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_trace_table_is_loud():
    tracer = Tracer("t")
    with installed(tracer):  # every real entry resolves
        pass
    gone = CALL_SITES + (("core", "x", "repro.core.index", "InvertedIndex.no_such"),)
    try:
        with installed(tracer, gone):
            pass
    except TraceTableError:
        pass
    else:
        raise AssertionError("a missing attribute must be a hard error")
    import repro.core.index as index_module

    build = vars(index_module.InvertedIndex)["build"]
    assert isinstance(build, classmethod) and not hasattr(build.__func__, "__wrapped__")


def test_all_four_drivers_tiny():
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as out:
        for name in WORKLOADS:
            for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
                document = run.run_workload(
                    name, seed=3, seconds=1, trace=trace, out_dir=out, tiny=True, n_reads=2000
                )
                result = document["result"]
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"], (name, trace, document["checks"])
                assert result["failed"] == 0 and result["attempted"] >= 1
                assert list(result["metrics"]) == [row[0] for row in table]
                for metric, row in zip(result["metrics"].values(), table):
                    assert metric["unit"] == row[1]
                    assert isinstance(metric["value"], (int, float))
                if not trace:
                    assert all(m["value"] > 0 for m in result["metrics"].values())
                assert set(document["environment"]) == {"nproc", "python", "numpy", "load_1min"}
                assert all(len(v) == 64 for v in document["detail"]["sha256"].values())
            assert json.loads((run.Path(out) / f"trace-{name}.json").read_text())["spans"]


def main() -> int:
    started = time.perf_counter()
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
