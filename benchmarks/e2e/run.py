"""One end-to-end benchmark: four workloads, absolute seconds and bytes.

The driver's contract::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit, checks the outputs, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0`` (tracing off), the per-layer metrics with
``--trace 1`` (one more traced pass, which also writes
``trace-<workload>.json``).  Exit code 1 when a check fails.

Without ``--workload`` it runs all four workloads, untraced then traced.
``--repeat-check`` instead runs two full untraced sets (every workload,
``--seeds`` seeds each) and compares their medians against the bounds.
See README.md for the layer map and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"{SRC}/repro not found: run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import stream  # noqa: E402
from layers import cluster_bytes, parallel_scans, partitioned_digest  # noqa: E402
from pipeline import run_pipeline  # noqa: E402
from registry import (  # noqa: E402
    END_TO_END,
    N_READS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    manifest,
)
from stats import best_decile, iqr_share, lower_quartile, median, worse_by  # noqa: E402
from worlds import build_inputs  # noqa: E402
from yardstick import Yardstick  # noqa: E402

#: Fresh-interpreter repetitions a batch run makes at the very least.
MIN_REPS = 3
#: A repetition still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 120.0
#: How often a run repeats its set-up; ``setup_s`` is the median.
SETUPS = {"batch": 5, "stream": 3}
#: Where runs work and, by default, leave their results (git-ignored).
WORK_ROOT = HERE / ".work"
OUT_DEFAULT = HERE / ".out"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min": os.getloadavg()[0],
    }


def child_env(work: Path) -> dict:
    """Children import ``repro`` from this checkout and keep temp files in it."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(work)
    return env


def snapshot_mb(store: Path) -> float:
    """MB on disk per published snapshot in a verdict store."""
    snapshots = list(store.glob("snap-*.rvs"))
    return sum(f.stat().st_size for f in snapshots) / 1e6 / max(1, len(snapshots))


def timed_setups(workload, seed: int, work: Path, tiny: bool, repeats: int, yardstick):
    """Set up ``repeats`` times; the last set-up is the one the run uses.

    Batch: generate the world, write its CSVs.  Stream: that, plus spawn
    ``serve`` and wait for the seed epoch — work a later change moves into
    service start-up shows here.  A yardstick pass precedes each set-up and
    calibrates it (see yardstick.py).
    """
    setups, inputs, serve = [], None, None
    for i in range(repeats):
        if serve is not None:
            serve.stop()
            shutil.rmtree(work / "store")
        slowness = yardstick.measure()
        start = time.perf_counter()
        inputs = build_inputs(workload, seed, work / "inputs", tiny)
        if workload.kind == "stream":
            serve = stream.Serve(
                work / "inputs" / "base.csv",
                work / "store",
                child_env(work),
                work / f"serve-{i}.log",
            )
        setups.append({"seconds": time.perf_counter() - start, "slowness": slowness})
    return setups, inputs, serve


def setup_seconds(setups: list[dict]) -> float:
    """``setup_s``: the median set-up, each divided by the slowness before it."""
    return median(s["seconds"] / s["slowness"] for s in setups)


def input_checks(workload, inputs: dict, tiny: bool) -> dict:
    pinned = tiny or inputs["sha256"]["canonical.csv"] == workload.csv_sha256
    return {"inputs_pinned": pinned}


def output_quality(inputs: dict, copying, truths) -> tuple[float, float]:
    """Planted-pair recall and gold accuracy of one run's outputs."""
    world = inputs["world"]
    found = {frozenset(pair) for pair in copying}
    planted = {frozenset(pair) for pair in world.copy_pairs}
    recall = len(planted & found) / len(planted)
    gold = {i: v for i, v in world.gold.truths.items() if i in truths}
    accuracy = sum(truths[i] == v for i, v in gold.items()) / len(gold)
    return recall, accuracy


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_child(workload, csv_path: Path, work: Path, seed: int, n_reads: int, dump: bool):
    """One fresh-interpreter repetition; the parent's clock times it."""
    work.mkdir()
    store = work / "store"
    dump_path = work / "outputs.json"
    command = [
        sys.executable, str(HERE / "pipeline.py"),
        "--workload", workload.name,
        "--csv", str(csv_path),
        "--store", str(store),
        "--seed", str(seed),
        "--reads", str(n_reads),
        "--dump", str(dump_path) if dump else "",
    ]
    rep = {"ttv_s": None, "result": None, "outputs": None}
    with open(work / "stderr.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=child_env(work), text=True
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        for line in proc.stdout:
            if line.startswith("FIRST_READ"):
                rep["ttv_s"] = time.perf_counter() - start
            elif line.startswith("RESULT "):
                rep["result"] = json.loads(line[len("RESULT ") :])
        _, status, _ = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    rep["wall_s"] = time.perf_counter() - start
    rep["exit"] = proc.returncode
    rep["snapshot_mb"] = snapshot_mb(store) if store.is_dir() else 0.0
    rep["ok"] = proc.returncode == 0 and rep["ttv_s"] is not None and rep["result"] is not None
    if not rep["ok"]:
        sys.stderr.write((work / "stderr.log").read_text()[-2000:])
    elif dump:
        rep["outputs"] = json.loads(dump_path.read_text())
    shutil.rmtree(store, ignore_errors=True)
    return rep


def batch_checks(workload, inputs, reps, csv_path, tiny) -> dict:
    good = [r for r in reps if r["ok"]]
    checks = input_checks(workload, inputs, tiny)
    checks["children_exit_0"] = len(good) == len(reps)
    checks["reads_agree_with_detection"] = all(
        r["result"]["failed_reads"] == 0 for r in good
    )
    digests = {r["result"]["digest"] for r in good}
    checks["digests_agree"] = len(digests) == 1
    checks["converged"] = all(r["result"]["converged"] for r in good)
    outputs = next((r["outputs"] for r in good if r["outputs"]), None)
    if outputs is not None and not tiny:
        recall, accuracy = output_quality(inputs, outputs["copying"], outputs["truths"])
        checks["planted_recall_1"] = recall == 1.0
        checks["gold_accuracy_ge_0.95"] = accuracy >= 0.95
    if workload.name == "batch_book_par" and good:
        checks["equals_serial_executor"] = digests == {partitioned_digest(csv_path, 2, "serial")}
    return checks


def run_batch(workload, seed, seconds, work, tiny, n_reads):
    yardstick = Yardstick()
    setups, inputs, _ = timed_setups(
        workload, seed, work, tiny, SETUPS[workload.kind], yardstick
    )
    csv_path = work / "inputs" / "claims.csv"
    deadline = time.perf_counter() + seconds
    reps = []
    before = yardstick.measure()
    while True:
        rep = run_child(workload, csv_path, work / f"rep-{len(reps)}", seed, n_reads, not reps)
        after = yardstick.measure()
        # A repetition is calibrated by the passes on either side of it.
        rep["slowness"] = (before + after) / 2
        before = after
        reps.append(rep)
        typical = median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and time.perf_counter() + typical > deadline:
            break
    good = [r for r in reps if r["ok"]]
    checks = batch_checks(workload, inputs, reps, csv_path, tiny)
    metrics = {"setup_s": setup_seconds(setups)}
    as_read = {}
    if good:
        as_read = {
            "time_to_verdicts_s": lower_quartile([r["ttv_s"] for r in good]),
            "read_ms": min(r["result"]["read_ms"] for r in good),
        }
        # Low quantiles, not medians: neighbours only ever slow things down
        # (see the README's noise protocol).  A repetition lasts seconds, so
        # each is calibrated by the passes around it; a read pass lasts 0.1 s
        # and there are ~50, so floor is set against floor.
        metrics["time_to_verdicts_s"] = lower_quartile(
            [r["ttv_s"] / r["slowness"] for r in good]
        )
        metrics["read_ms"] = as_read["read_ms"] / min(yardstick.passes)
        metrics["peak_rss_mb"] = median(r["result"]["peak_rss_mb"] for r in good)
        metrics["snapshot_mb"] = median(r["snapshot_mb"] for r in good)
    attempted = sum(1 + (r["result"]["reads"] if r["ok"] else 0) for r in reps)
    failed = sum(r["result"]["failed_reads"] if r["ok"] else 1 for r in reps)
    for rep in reps:
        del rep["outputs"]
    detail = {
        "sha256": inputs["sha256"],
        "setups": setups,
        "reps": reps,
        "yardstick": {"passes": yardstick.passes, "as_read": as_read},
    }
    return metrics, attempted, failed, checks, detail


def run_batch_traced(workload, seed, work, tiny, n_reads, out_dir):
    """One untraced child, one untraced and one traced in-process pass."""
    yardstick = Yardstick()
    _, inputs, _ = timed_setups(workload, seed, work, tiny, 1, yardstick)
    csv_path = work / "inputs" / "claims.csv"
    child = run_child(workload, csv_path, work / "rep-0", seed, n_reads, False)
    yardstick.measure()
    plain = run_pipeline(workload, csv_path, work / "store-plain", seed, n_reads)
    yardstick.measure()
    tracer = spans.Tracer(f"{workload.name}-seed{seed}")
    with spans.installed(tracer):
        traced = run_pipeline(workload, csv_path, work / "store-traced", seed, n_reads, tracer)
    yardstick.measure()
    tracer.write(out_dir / f"trace-{workload.name}.json")

    recorded = tracer.spans
    root_s = spans.duration(recorded[0])
    layer = {name: 0.0 for name, _, _ in PER_LAYER}
    layer.update(
        {
            "proc.import_s": child["result"]["import_s"] if child["ok"] else 0.0,
            "data.load_s": spans.total(recorded, name="data.load"),
            "data.claims": traced["claims"],
            "core.index_build_s": spans.total(recorded, name="core.index_build"),
            "core.detect_s": spans.total(recorded, name="core.detect"),
            "core.scan_self_s": spans.self_total(recorded, name="core.detect"),
            "core.round_first_s": traced["round_first_s"],
            "core.round_last_s": traced["round_last_s"],
            "core.pairs_scored": traced["pairs_scored"],
            "core.early_share": traced["early_share"],
            "core.computations": traced["computations"],
            "core.values_examined": traced["values_examined"],
            "parallel.detect_s": spans.total(recorded, name="parallel.detect"),
            "fusion.run_s": spans.total(recorded, name="fusion.run"),
            "fusion.truth_update_s": traced["truth_update_s"],
            "fusion.rounds": traced["rounds"],
            "fusion.self_s": spans.self_total(recorded, name="fusion.run"),
            "serving.publish_s": spans.total(recorded, name="serving.publish"),
            "serving.reader_open_s": spans.total(recorded, name="serving.reader_open"),
            "serving.read_p50_us": traced["read_ms"] * 1e3,
            "serving.read_p99_us": traced["read_p99_us"],
            "serving.reads_per_s": plain["reads_per_s"],
            "serving.lru_hit_share": traced["lru_hit_share"],
            "bench.trace_overhead_share": traced["pipeline_s"] / plain["pipeline_s"] - 1.0,
            "bench.untraced_share": spans.self_total(recorded, layer="harness") / root_s,
            "bench.machine_slowness": median(yardstick.passes),
        }
    )
    layer.update(store_counts(work / "store-traced"))

    checks = input_checks(workload, inputs, tiny)
    checks["child_exit_0"] = child["ok"]
    checks["digests_agree"] = child["ok"] and (
        child["result"]["digest"] == plain["digest"] == traced["digest"]
    )
    # The layer self times must account for the traced time to verdicts.
    checks["layers_cover_95pct"] = layer["bench.untraced_share"] <= 0.05
    if workload.name == "batch_book_par":
        layer.update(parallel_scans(csv_path))
        counters, same = cluster_bytes(csv_path)
        layer.update(counters)
        checks["cluster_equals_serial_executor"] = same
    passes = [plain, traced] + ([child["result"]] if child["ok"] else [])
    attempted = 1 + sum(p["reads"] for p in passes)
    failed = sum(p["failed_reads"] for p in passes) + (not child["ok"])
    detail = {"sha256": inputs["sha256"], "traced_time_to_verdicts_s": root_s}
    return layer, attempted, failed, checks, detail


def store_counts(store_dir: Path) -> dict:
    """Snapshot kinds and bytes in a verdict store."""
    from repro.serving import VerdictStore

    store = VerdictStore(store_dir, create=False)
    kinds = [store.load(i)[0].get("kind") for i in store.snapshot_ids()]
    return {
        "serving.snapshots_full": kinds.count("full"),
        "serving.snapshots_delta": kinds.count("delta"),
        "serving.bytes_written": sum(
            store.snapshot_path(i).stat().st_size for i in store.snapshot_ids()
        ),
    }


# ----------------------------------------------------------------------
# Stream workload
# ----------------------------------------------------------------------
def run_stream(workload, seed, seconds, work, tiny, trace, out_dir):
    """Live feed; with ``trace`` also the in-process replay with spans."""
    yardstick = Yardstick()
    setups, inputs, serve = timed_setups(
        workload, seed, work, tiny, 1 if trace else SETUPS[workload.kind], yardstick
    )
    try:
        feed = stream.run_feed(serve.port, inputs, seed, seconds, yardstick)
    finally:
        exit_code, rss_mb = serve.stop()
    feed.pop("listener").join(timeout=10.0)
    summary = stream.summarise(feed)
    store = work / "store"

    n_posts = len(feed["post_status"])
    bad_posts = sum(status != 202 for status in feed["post_status"])
    bad_reads = feed["read_ok"].count(False)
    attempted = 2 * n_posts + len(feed["fed"]) + 1
    failed = bad_posts + bad_reads + summary["never_visible"] + (exit_code != 0)
    checks = input_checks(workload, inputs, tiny)
    checks["serve_exit_0"] = exit_code == 0
    checks["posts_202_reads_200"] = bad_posts == bad_reads == 0
    checks["all_fed_claims_visible"] = summary["never_visible"] == 0
    detail = {
        "sha256": inputs["sha256"],
        "setups": setups,
        "epochs": [e for _, e in feed["epochs"]],
        "fresh_s": summary["fresh_s"],
        "read_s": feed["read_s"],
        "gen_late_max_ms": summary["bench.gen_late_max_ms"],
        # Freshness counts from the due time, so a late generator still
        # charges the service; past 50 ms the schedule itself was not kept.
        "generator_on_schedule": summary["bench.gen_late_max_ms"] <= 50.0,
    }
    if not trace:
        fresh_s = summary["fresh_best_decile_s"]
        detail["yardstick"] = {
            "passes": yardstick.passes,
            "as_read": {"time_to_verdicts_s": fresh_s},
        }
        metrics = {
            "setup_s": setup_seconds(setups),
            # Decile by decile: the fastest epochs against the fastest passes.
            "time_to_verdicts_s": fresh_s / best_decile(yardstick.passes),
            # Not calibrated: a read beside a running epoch waits out the
            # interpreter's 5 ms switch interval, a timer no neighbour slows.
            "read_ms": summary["read_p50_s"] * 1e3,
            "peak_rss_mb": rss_mb,
            "snapshot_mb": snapshot_mb(store),
        }
        return metrics, attempted, failed, checks, detail

    tracer = spans.Tracer(f"{workload.name}-seed{seed}")
    replayed = stream.replay(work / "inputs" / "base.csv", feed, work / "store-replay", tracer)
    tracer.write(out_dir / f"trace-{workload.name}.json")
    compared, disagreeing = stream.live_equals_replay(store, replayed["state"])
    attempted += compared
    failed += disagreeing
    checks["replay_equals_live"] = disagreeing == 0

    recorded = tracer.spans
    fusions = replayed["fusions"]
    ledger = [spans.duration(s) for s in recorded if s["layer"] == "data"]
    layer = {name: 0.0 for name, _, _ in PER_LAYER}
    layer.update({k: v for k, v in summary.items() if k in layer})
    layer.update(store_counts(store))
    layer.update(
        {
            "bench.machine_slowness": median(yardstick.passes),
            "data.claims": len(inputs["rows"]) - len(inputs["feed"]) + len(feed["fed"]),
            "data.ledger_s_p50": median(ledger) if ledger else 0.0,
            "core.index_build_s": spans.total(recorded, name="core.index_build"),
            "core.detect_s": spans.total(recorded, name="core.detect"),
            "core.scan_self_s": spans.self_total(recorded, name="core.detect"),
            "core.round_first_s": median(f.rounds[0].detection_seconds for f in fusions),
            "core.round_last_s": median(f.rounds[-1].detection_seconds for f in fusions),
            "core.pairs_scored": len(replayed["state"].detection.decisions),
            "fusion.run_s": spans.total(recorded, name="fusion.run"),
            "fusion.truth_update_s": sum(
                r.fusion_seconds for f in fusions for r in f.rounds
            ),
            "fusion.rounds": median(f.n_rounds for f in fusions),
            "fusion.self_s": spans.self_total(recorded, name="fusion.run"),
            "serving.publish_s": spans.total(recorded, name="serving.publish"),
            "serving.reader_open_s": spans.total(recorded, name="serving.reader_open"),
            "serving.refresh_s_p50": replayed["refresh_s_p50"],
            "streaming.stage.ledger_s": replayed["stage_p50"]["ledger"],
            "streaming.stage.fusion_s": replayed["stage_p50"]["fusion"],
            "streaming.stage.publish_s": replayed["stage_p50"]["publish"],
            "streaming.stage.other_s": replayed["stage_p50"]["other"],
        }
    )
    return layer, attempted, failed, checks, detail


# ----------------------------------------------------------------------
# One run, the repeat check, the command line
# ----------------------------------------------------------------------
def run_workload(name, seed, seconds, trace, out_dir=None, tiny=False, n_reads=N_READS):
    """Run one workload once; returns the result document."""
    workload = WORKLOADS[name]
    out_dir = Path(out_dir or OUT_DEFAULT)
    out_dir.mkdir(parents=True, exist_ok=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    env = environment()
    try:
        if workload.kind == "stream":
            values, attempted, failed, checks, detail = run_stream(
                workload, seed, seconds, work, tiny, trace, out_dir
            )
        elif trace:
            values, attempted, failed, checks, detail = run_batch_traced(
                workload, seed, work, tiny, n_reads, out_dir
            )
        else:
            values, attempted, failed, checks, detail = run_batch(
                workload, seed, seconds, work, tiny, n_reads
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks["no_failed_operations"] = failed == 0
    wanted = [(n, u) for n, u, *_ in (PER_LAYER if trace else END_TO_END)]
    checks["every_metric_reported"] = all(n in values for n, _ in wanted)
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": values[n], "unit": u} for n, u in wanted if n in values
        },
    }
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "inputs_drifted": not checks["inputs_pinned"],
        "checks": checks,
        "result": result,
        "detail": detail,
    }
    kind = "layers" if trace else "e2e"
    document["written_to"] = str(out_dir / f"result-{name}-{kind}-seed{seed}.json")
    Path(document["written_to"]).write_text(json.dumps(document, indent=1))
    return document


def report(document: dict) -> None:
    """Human-readable metrics and checks (before the final JSON line)."""
    print(f"# {document['workload']} seed={document['seed']} trace={document['trace']}")
    for name, metric in document["result"]["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    yardstick = document["detail"].get("yardstick")
    if yardstick:
        print(
            f"calibrated: machine slowness {median(yardstick['passes']):.3f} (median of "
            f"{len(yardstick['passes'])} yardstick passes); as read: "
            + ", ".join(f"{n} {v:.6g}" for n, v in yardstick["as_read"].items())
        )
    for name, passed in document["checks"].items():
        print(f"check {name:40s} {'ok' if passed else 'FAILED'}")
    print(f"full record: {document['written_to']}")
    if document["inputs_drifted"]:
        print("inputs_drifted: the generated world no longer matches its pinned SHA-256")


def repeat_check(seconds, n_seeds, base_seed, out_dir) -> int:
    """Two full untraced sets; medians must agree within each bound."""
    sets = []
    for which in (1, 2):
        values = {}
        for name in WORKLOADS:
            for seed in range(base_seed, base_seed + n_seeds):
                document = run_workload(
                    name, seed, seconds, False, Path(out_dir or OUT_DEFAULT) / f"set-{which}"
                )
                if not document["result"]["correct"]:
                    print(f"set {which}: {name} seed {seed} failed its checks")
                    return 1
                for metric, entry in document["result"]["metrics"].items():
                    values.setdefault((metric, name), []).append(entry["value"])
        sets.append(values)
    worst = 0
    print(f"{'metric':22s} {'workload':16s} {'median 1':>12s} {'median 2':>12s} "
          f"{'gap':>8s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    for metric, _, better, bound in END_TO_END:
        for name in WORKLOADS:
            first, second = (s[(metric, name)] for s in sets)
            gap = worse_by(median(first), median(second), better)
            spread = [iqr_share(v) if len(v) > 1 else 0.0 for v in (first, second)]
            over = gap > bound or (metric != "setup_s" and max(spread) > bound)
            worst |= over
            print(f"{metric:22s} {name:16s} {median(first):12.5g} {median(second):12.5g} "
                  f"{gap:8.2%} {spread[0]:9.2%} {spread[1]:9.2%} {bound:6.0%}"
                  + ("  OVER" if over else ""))
    return int(worst)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help=f"results directory (default {OUT_DEFAULT})")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set for --repeat-check")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.repeat_check:
        return repeat_check(args.seconds, args.seeds, args.seed, args.out)
    if args.workload is not None:
        runs = [(args.workload, bool(args.trace))]
    else:  # the whole benchmark: every workload, untraced then traced
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    correct = True
    for name, trace in runs:
        document = run_workload(name, args.seed, args.seconds, trace, args.out)
        report(document)
        print(json.dumps(document["result"]))
        correct &= document["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
