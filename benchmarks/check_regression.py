"""Regression gate over the ``BENCH_*.json`` artifacts.

Compares freshly generated benchmark artifacts against the committed
baselines under ``benchmarks/output/`` and **fails** (exit code 1) when:

* the kernel backend's ``index_scan`` speedup, the bound backend's
  ``bound``/``bound+`` speedups, or the fusion pipeline's
  ``run_fusion`` reused-workspace speedup drop below the ROADMAP's 3x
  floor, or the scale sweep's sparse-vs-reference speedups drop below
  their 1.25x floor, or the serving layer's LRU read API drops below
  its 10x floor over recomputed verdicts, or the streaming service
  slips below the absolute ingest/latency floors recorded in its own
  artifact (``BENCH_FLOORS``)
  (after a measurement-noise tolerance — speedups are a ratio of two
  wall-clock numbers and swing ~10% run to run even on an idle machine,
  so the hard cut is ``floor * (1 - tolerance)``; anything between the
  cut and the floor is reported as a warning);
* any artifact's self-recorded ``check.passed`` is false for
  correctness-type checks (bit-identical outcomes, parallel verdict
  equivalence);
* a required artifact is missing or unreadable.

Baseline comparison is *reported* (speedup deltas vs the committed
numbers) but does not fail the gate on its own: the baselines were
recorded on a different machine, and only the floor is portable.

Run locally::

    PYTHONPATH=src python benchmarks/bench_kernel_backend.py --smoke --output /tmp/fresh/BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_bound_backend.py  --smoke --output /tmp/fresh/BENCH_bound.json
    PYTHONPATH=src python benchmarks/bench_parallel_engine.py --smoke --output /tmp/fresh/BENCH_parallel.json
    PYTHONPATH=src python benchmarks/bench_fusion_pipeline.py --smoke --output /tmp/fresh/BENCH_fusion.json
    PYTHONPATH=src python benchmarks/bench_scale_sweep.py --smoke --output /tmp/fresh/BENCH_scale.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --output /tmp/fresh/BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke --output /tmp/fresh/BENCH_stream.json
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke --output /tmp/fresh/BENCH_cluster.json
    PYTHONPATH=src python benchmarks/bench_ds.py --smoke --output /tmp/fresh/BENCH_ds.json
    python benchmarks/check_regression.py --fresh /tmp/fresh

CI runs exactly this sequence (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "output"

#: ROADMAP floor for the backend speedups.
DEFAULT_FLOOR = 3.0

#: Wall-clock ratios are noisy; see the module docstring.  Back-to-back
#: runs of the *identical* bound bench on an otherwise idle 1-core dev
#: container measured bound+ anywhere from 2.6x to 2.9x (a 12% swing),
#: and shared CI runners are noisier still — so the hard cut sits 15%
#: under the floor, with everything between reported as a warning.
DEFAULT_TOLERANCE = 0.15

#: Per-benchmark floor overrides.  The scale sweep gates the sparse
#: pair layout against the pure-Python reference at 1.25x, not the 3x
#: backend floor: its point is completing Zipf worlds past the dense
#: ``n_sources**2`` ceiling at all.  Since the scans hand back columns
#: instead of per-pair objects the slowest measured ratio is BOUND+ on
#: zipf_10k at 1.5-1.7x (smoke zipf_2k: 2.2x; ACCUCOPY 2.4-3.4x); the
#: floor is that minimum less the 15% tolerance below, so falling back
#: to parity with the loop it replaced now fails.  The serving bench
#: gates the LRU read API at 10x over recomputing verdicts from the in-memory
#: ``DetectionResult`` — below that the store isn't paying for itself.
#: The streaming bench gates *absolute* figures (sustained claims/sec,
#: verdict-update p99) against floors the artifact itself records; the
#: ratios handed to the gate are measured/floor, so parity (1.0) is the
#: line.  The cluster bench gates 4 remote workers at >= 2x over 1
#: remote worker — but only on machines with at least the core count
#: its artifact records (``floors.min_cpus``): a 1-core container
#: cannot scale by adding workers, and pretending otherwise would gate
#: on physics, not regressions.  Its bit-identical/broadcast-once
#: correctness check applies everywhere.  The DS bench gates the
#: columnar Dempster-Shafer kernel at parity with the reference loop
#: (its real gate is the 1e-9 lockstep self-check; the measured speedup
#: is ~15x, but parity is what must never regress).
BENCH_FLOORS = {
    "scale": 1.25,
    "serve": 10.0,
    "stream": 1.0,
    "cluster": 2.0,
    "ds": 1.0,
}


def _load(directory: Path, name: str) -> dict | None:
    path = directory / name
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL  {path}: unreadable ({exc})")
        return None


def _speedups(report: dict, benchmark: str) -> dict[str, float]:
    """Extract the gated speedup figures from one artifact."""
    if benchmark == "kernel":
        return {"index_scan": report["timings_seconds"]["index_scan"]["speedup"]}
    if benchmark == "bound":
        timings = report["large_world"]["timings_seconds"]
        return {
            "bound": timings["bound"]["speedup_default"],
            "bound+": timings["bound+"]["speedup_default"],
        }
    if benchmark == "fusion":
        return {
            "run_fusion": report["timings_seconds"]["run_fusion"][
                "speedup_reused"
            ]
        }
    if benchmark == "scale":
        return {
            f"{label}/{name}": timing["speedup"]
            for label, row in report["worlds"].items()
            for name, timing in row["timings_seconds"].items()
            if "speedup" in timing
        }
    if benchmark == "serve":
        return {"read_api": report["timings_seconds"]["read_api"]["speedup"]}
    if benchmark == "ds":
        return {
            "ds_combination": report["timings_seconds"]["ds_combination"][
                "speedup"
            ]
        }
    if benchmark == "stream":
        # Absolute gates expressed as measured/floor ratios so the
        # shared parity-floor machinery applies: >= 1.0 means the run
        # sustained the required ingest rate / stayed under the latency
        # ceiling recorded in the artifact's own ``floors`` section.
        floors = report["floors"]
        timings = report["timings"]
        return {
            "ingest": timings["claims_per_sec"] / floors["claims_per_sec"],
            "latency_p99": floors["p99_ms"] / timings["latency_p99_ms"],
        }
    if benchmark == "cluster":
        # Scaling is only measurable with real cores under the workers;
        # below the artifact's own min_cpus the speedup figures document
        # the platform rather than gate it (see check()).
        cpus = report["platform"].get("cpu_count") or 0
        if cpus < report.get("floors", {}).get("min_cpus", 4):
            return {}
        return {
            f"{label}/4w_vs_1w": row["speedup_4w_vs_1w"]
            for label, row in report["worlds"].items()
            if "speedup_4w_vs_1w" in row
        }
    return {}


def check(
    fresh_dir: Path,
    baseline_dir: Path = BASELINE_DIR,
    floor: float = DEFAULT_FLOOR,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    """Gate the artifacts in ``fresh_dir``; returns a process exit code."""
    failures = 0
    specs = [
        ("BENCH_kernel.json", "kernel", True),
        ("BENCH_bound.json", "bound", True),
        ("BENCH_parallel.json", "parallel", False),
        ("BENCH_fusion.json", "fusion", True),
        ("BENCH_scale.json", "scale", False),
        ("BENCH_serve.json", "serve", True),
        ("BENCH_stream.json", "stream", True),
        ("BENCH_cluster.json", "cluster", False),
        ("BENCH_ds.json", "ds", True),
    ]
    for filename, benchmark, required in specs:
        bench_floor = BENCH_FLOORS.get(benchmark, floor)
        cut = bench_floor * (1.0 - tolerance)
        fresh = _load(fresh_dir, filename)
        if fresh is None:
            if required:
                print(f"FAIL  {filename}: missing from {fresh_dir}")
                failures += 1
            else:
                print(f"skip  {filename}: not generated")
            continue
        baseline = _load(baseline_dir, filename)

        # Correctness-type self-checks must always hold.
        if benchmark == "parallel":
            if fresh["check"]["passed"]:
                print(f"ok    {filename}: {fresh['check']['target']}")
            else:
                print(f"FAIL  {filename}: {fresh['check']['target']}")
                failures += 1
            continue
        if benchmark == "bound":
            identical = all(
                fresh[w]["bit_identical"]
                for w in ("large_world", "small_world")
                if w in fresh
            )
            if not identical:
                print(f"FAIL  {filename}: backends not bit-identical")
                failures += 1
        if benchmark == "fusion":
            if not (
                fresh["check"]["truths_match"] and fresh["check"]["verdicts_match"]
            ):
                print(
                    f"FAIL  {filename}: backends disagree on fused "
                    f"truths/verdicts"
                )
                failures += 1
        if benchmark == "serve":
            if not fresh["check"]["passed"]:
                print(
                    f"FAIL  {filename}: served replies diverge, concurrent "
                    f"reads failed verification, or delta snapshots rewrote "
                    f"more than the re-opened pairs"
                )
                failures += 1
        if benchmark == "stream":
            if not fresh["check"]["passed"]:
                print(
                    f"FAIL  {filename}: streamed reads failed snapshot "
                    f"verification or the live run diverged from its "
                    f"synchronous replay"
                )
                failures += 1
        if benchmark == "cluster":
            if not fresh["check"]["passed"]:
                print(
                    f"FAIL  {filename}: a cluster size diverged from the "
                    f"serial verdicts or the world was re-broadcast "
                    f"mid-session"
                )
                failures += 1
            cpus = fresh["platform"].get("cpu_count") or 0
            min_cpus = fresh.get("floors", {}).get("min_cpus", 4)
            if cpus < min_cpus:
                print(
                    f"note  {filename}: {cpus} CPU(s) < {min_cpus}; the "
                    f"scaling floor is not measurable here (correctness "
                    f"still gated)"
                )
        if benchmark == "ds":
            if not (fresh["check"]["truths_match"] and fresh["check"]["lockstep"]):
                print(
                    f"FAIL  {filename}: DS implementations disagree "
                    f"(prob drift {fresh['check']['prob_drift']:.2e}, "
                    f"conflict drift {fresh['check']['conflict_drift']:.2e})"
                )
                failures += 1
        if benchmark == "scale":
            mismatched = [
                label
                for label, row in fresh["worlds"].items()
                if row.get("bit_identical") is False
                or row.get("fusion_max_abs_diff", 0.0) > 1e-9
            ]
            if mismatched:
                print(
                    f"FAIL  {filename}: sparse layout diverges from the "
                    f"reference in {', '.join(mismatched)}"
                )
                failures += 1

        for name, speedup in _speedups(fresh, benchmark).items():
            base = None
            if baseline is not None:
                base = _speedups(baseline, benchmark).get(name)
            delta = (
                f" (baseline {base:.1f}x, {speedup - base:+.1f}x)"
                if base is not None
                else ""
            )
            if speedup < cut:
                print(
                    f"FAIL  {filename}: {name} speedup {speedup:.2f}x is below "
                    f"{cut:.2f}x ({bench_floor:.1f}x floor - {tolerance:.0%} "
                    f"noise tolerance){delta}"
                )
                failures += 1
            elif speedup < bench_floor:
                print(
                    f"warn  {filename}: {name} speedup {speedup:.2f}x is inside "
                    f"the noise band below the {bench_floor:.1f}x floor{delta}"
                )
            else:
                print(f"ok    {filename}: {name} speedup {speedup:.2f}x{delta}")
    print("regression gate:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh",
        type=Path,
        default=BASELINE_DIR,
        help="directory holding freshly generated BENCH_*.json artifacts "
        "(default: the committed baselines themselves — a self-check)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_DIR,
        help="directory holding the committed baseline artifacts",
    )
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)
    return check(args.fresh, args.baseline, args.floor, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
