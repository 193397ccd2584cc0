"""The batch user path, driven from outside the program.

``load_claims -> run_fusion(detector, snapshot_store=...) -> VerdictReader
-> 1 read``, then the skewed read phase.  Run as a script this is the
fresh-interpreter repetition the end-to-end metrics come from (it prints
``FIRST_READ`` the instant the first read is served, then one ``RESULT``
line); the traced run calls :func:`run_pipeline` in-process with a tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter

from registry import N_READS, PARAMS, READ_BLOCK, READ_PHASE_S, WORKLOADS
from spans import span
from stats import median, percentile


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a live process: the peak RSS of its own address space.

    Not ``ru_maxrss``: across ``fork`` + ``exec`` that carries the *parent's*
    peak over, so a large benchmark process would floor every child's reading.
    """
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def skewed_queries(observed, n_sources: int, n_queries: int, seed: int):
    """80% hot tenth / 15% any observed / 5% never observed, half flipped.

    Where every pair is observed (few dense sources) the last 5% fall on
    observed pairs too.
    """
    rng = random.Random(seed)
    observed = sorted(observed)
    known = set(observed)
    hot = observed[: max(1, len(observed) // 10)]
    never_observed = n_sources * (n_sources - 1) // 2 - len(observed)
    unobserved = []
    while len(unobserved) < min(never_observed, max(1, len(observed) // 5)):
        s1, s2 = rng.randrange(n_sources), rng.randrange(n_sources)
        if s1 != s2 and (min(s1, s2), max(s1, s2)) not in known:
            unobserved.append((s1, s2))
    queries = []
    for _ in range(n_queries):
        roll = rng.random()
        if roll < 0.80:
            pair = hot[rng.randrange(len(hot))]
        elif roll < 0.95 or not unobserved:
            pair = observed[rng.randrange(len(observed))]
        else:
            pair = unobserved[rng.randrange(len(unobserved))]
        queries.append(pair if rng.random() < 0.5 else (pair[1], pair[0]))
    return queries


def _agrees(reply, decision) -> bool:
    """A served reply against the run's own ``DetectionResult`` entry.

    Only observed-ness and the copying verdict are compared: delta snapshots
    carry the pairs INCREMENTAL re-opened, so the served *scores* of the
    others are those of the round that last opened them.
    """
    if decision is None or reply is None:
        return decision is None and reply is None
    return reply.copying == decision.copying


def verdict_digest(dataset, fusion) -> tuple[str, list, dict]:
    """Digest of (copying-pair set, fused truths), by name so ids drop out."""
    names = dataset.source_names
    copying = sorted(
        sorted((names[a], names[b])) for a, b in fusion.final_detection().copying_pairs()
    )
    truths = {
        dataset.item_names[item]: dataset.value_label[value]
        for item, value in fusion.chosen.items()
    }
    blob = json.dumps([copying, sorted(truths.items())], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), copying, truths


def run_pipeline(
    workload,
    csv_path,
    store_dir,
    seed: int,
    n_reads: int = N_READS,
    tracer=None,
    on_first_read=None,
) -> dict:
    """One pass over the batch path; returns measurements and outputs.

    With a ``tracer`` the reads are timed one by one (p50/p99) in a single
    pass; without, in blocks of ``READ_BLOCK`` so the timer stays out of the
    measurement, pass after pass for ``READ_PHASE_S``, and ``read_ms`` is the
    best pass's median block.
    """
    from repro import CopyParams, run_fusion
    from repro.data import load_claims
    from repro.serving import VerdictReader

    start = time.perf_counter()
    with span(tracer, "pipeline", "harness"):
        with span(tracer, "data.load", "data"):
            dataset = load_claims(csv_path)
        params = CopyParams(**PARAMS)
        detector = workload.detector(params)
        with span(tracer, "fusion.run", "fusion"):
            fusion = run_fusion(dataset, params, detector, snapshot_store=store_dir)
        with span(tracer, "serving.reader_open", "serving"):
            reader = VerdictReader(store_dir)
        detection = fusion.final_detection()
        first_pair = next(iter(detection.decisions))
        with span(tracer, "serving.first_read", "serving"):
            first = reader.get_verdict(*first_pair)
    pipeline_s = time.perf_counter() - start
    if on_first_read is not None:
        on_first_read()

    queries = skewed_queries(detection.decisions, dataset.n_sources, n_reads, seed)
    clock = time.perf_counter
    timings, pass_p50, read_s = [], [], 0.0
    # The phase shrinks with the pass so the self-test's tiny passes stay tiny.
    phase_end = clock() + READ_PHASE_S * n_reads / N_READS
    while not pass_p50 or (tracer is None and clock() < phase_end):
        # Every pass starts cold: a fresh reader has an empty LRU.
        get = VerdictReader(store_dir).get_verdict
        timings = []
        pass_start = clock()
        if tracer is None:
            for i in range(0, len(queries), READ_BLOCK):
                t = clock()
                for s1, s2 in queries[i : i + READ_BLOCK]:
                    get(s1, s2)
                timings.append((clock() - t) / READ_BLOCK)
        else:
            for s1, s2 in queries:
                t = clock()
                get(s1, s2)
                timings.append(clock() - t)
        read_s += clock() - pass_start
        pass_p50.append(median(timings))
    hits = get.__self__.cache_info()["verdict_cache"]

    # Verify after timing: re-ask each distinct query (cache-hot) and weigh
    # a disagreement by how often the read phase asked it.
    decisions = detection.decisions
    failed_reads = 0 if _agrees(first, decisions.get(first_pair)) else 1
    for (s1, s2), count in Counter(queries).items():
        key = (s1, s2) if s1 < s2 else (s2, s1)
        if not _agrees(get(s1, s2), decisions.get(key)):
            failed_reads += count

    digest, copying, truths = verdict_digest(dataset, fusion)
    rounds = fusion.rounds
    early = sum(1 for d in decisions.values() if d.early)
    return {
        "pipeline_s": pipeline_s,
        "read_ms": min(pass_p50) * 1e3,
        "read_passes": len(pass_p50),
        "read_p99_us": percentile(timings, 99) * 1e6,
        "reads_per_s": len(queries) * len(pass_p50) / read_s,
        "lru_hit_share": hits.hits / max(1, hits.hits + hits.misses),
        "reads": len(queries) * len(pass_p50) + 1,
        "failed_reads": failed_reads,
        "digest": digest,
        "copying": copying,
        "truths": truths,
        "claims": sum(dataset.items_per_source),
        "rounds": len(rounds),
        "converged": fusion.converged,
        "round_first_s": rounds[0].detection_seconds,
        "round_last_s": rounds[-1].detection_seconds,
        "truth_update_s": sum(r.fusion_seconds for r in rounds),
        "pairs_scored": len(decisions),
        "early_share": early / max(1, len(decisions)),
        "computations": fusion.total_computations,
        "values_examined": sum(r.detection.cost.values_examined for r in rounds),
    }


def main() -> int:
    born = time.perf_counter()
    import repro  # noqa: F401  (timed: this is proc.import_s)

    import_s = time.perf_counter() - born
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reads", type=int, default=N_READS)
    parser.add_argument("--dump", default="")
    args = parser.parse_args()

    def first_read():
        print("FIRST_READ", flush=True)

    result = run_pipeline(
        WORKLOADS[args.workload],
        args.csv,
        args.store,
        args.seed,
        n_reads=args.reads,
        on_first_read=first_read,
    )
    result["import_s"] = import_s
    result["peak_rss_mb"] = peak_rss_mb()
    outputs = {k: result.pop(k) for k in ("copying", "truths")}
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(outputs, f)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
