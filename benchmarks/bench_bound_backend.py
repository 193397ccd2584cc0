"""Micro-benchmark: python vs numpy backend on the BOUND-family scans.

Companion to ``bench_kernel_backend.py`` (which tracks the exhaustive
scans): this module times BOUND, BOUND+ and HYBRID under both backends
on a dense 212-source synthetic world, sweeps explicit entries-per-epoch
sizes against the numpy backend's default (epochs derived from incidence
mass), verifies the backends' decisions and INCREMENTAL bookkeeping are
**bit-identical** (the epoch-batched backend's contract — stronger than
the kernel's 1e-9), and writes a ``BENCH_bound.json`` artifact so every
subsequent PR can compare against this one.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_bound_backend.py [--smoke]
        [--output PATH]

``--smoke`` keeps the full primary world (BOUND+ only clears the 3x
floor at scale) but drops the epoch sweep and the small-world data
point — about a quarter of the full runtime; ``--output`` redirects the
artifact so the committed baseline stays untouched.

The world keeps ``bench_kernel_backend``'s 212-source dense recipe but
at 2400 items — the regime the epoch batching targets: pairs share
enough items that the scan is long, early terminations still prune ~60%
of the incidences, and the paper's Fig. 2 overhead trade-off is in full
effect.  The 400-item kernel-bench world is timed too, as a small-world
reference point.  The acceptance bar recorded by ``check`` is a >= 3x
speedup for BOUND and BOUND+ on the large world under the derived
epochs, with bit-identical outcomes.  BOUND+ currently misses it: the
32k-incidence budget is eight of this world's entries per epoch, where
the sweep's 64–128 entries are faster (ROADMAP, dense bound-family item).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.core import CopyParams, InvertedIndex, detect_hybrid
from repro.core.bound import detect_bound, detect_bound_plus
from repro.core.bound_kernel import EPOCH_INCIDENCE_BUDGET
from repro.fusion import vote_probabilities
from repro.synth.generator import GeneratorConfig, generate

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_bound.json"

#: 212 sources (200 independents + 4 planted copier groups of 3), dense
#: uniform coverage over 2400 items — the primary world.
WORLD_CONFIG = GeneratorConfig(
    n_items=2400,
    n_independent_sources=200,
    coverage_model="uniform",
    coverage_range=(0.3, 0.6),
    n_copier_groups=4,
    copiers_per_group=3,
)

#: The kernel benchmark's 400-item world, for the small-world data point.
SMALL_WORLD_CONFIG = GeneratorConfig(
    n_items=400,
    n_independent_sources=200,
    coverage_model="uniform",
    coverage_range=(0.3, 0.6),
    n_copier_groups=4,
    copiers_per_group=3,
)


#: ``None`` is the product setting: boundaries derived from incidence
#: mass (``EPOCH_INCIDENCE_BUDGET``); integers are entries per epoch.
DERIVED = None
EPOCH_SWEEP = (DERIVED, 32, 64, 128, 256, 512)

METHODS = (
    ("bound", detect_bound),
    ("bound+", detect_bound_plus),
)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _epoch_label(epoch_size: int | None) -> str:
    return "derived" if epoch_size is DERIVED else str(epoch_size)


def _bench_world(config: GeneratorConfig, sweep=EPOCH_SWEEP) -> dict:
    world = generate(config)
    dataset = world.dataset
    probabilities = vote_probabilities(dataset)
    accuracies = [0.8] * dataset.n_sources
    params_python = CopyParams(backend="python")
    params_numpy = CopyParams(backend="numpy")
    index = InvertedIndex.build(dataset, probabilities, accuracies, params_python)
    incidences = sum(
        len(e.providers) * (len(e.providers) - 1) // 2 for e in index.entries
    )

    timings: dict[str, dict] = {}
    identical = True
    for name, fn in METHODS:
        python_result = fn(
            dataset, probabilities, accuracies, params_python, index=index
        )
        row: dict = {
            "python": _best_of(
                lambda: fn(
                    dataset, probabilities, accuracies, params_python, index=index
                )
            ),
            "numpy_by_epoch": {},
            "values_examined": python_result.cost.values_examined,
            "early_pairs": sum(
                1 for d in python_result.decisions.values() if d.early
            ),
            "pairs": len(python_result.decisions),
        }
        for epoch_size in sweep:
            numpy_result = fn(
                dataset,
                probabilities,
                accuracies,
                params_numpy,
                index=index,
                epoch_size=epoch_size,
            )
            identical = identical and (
                numpy_result.decisions == python_result.decisions
            )
            row["numpy_by_epoch"][_epoch_label(epoch_size)] = _best_of(
                lambda: fn(
                    dataset,
                    probabilities,
                    accuracies,
                    params_numpy,
                    index=index,
                    epoch_size=epoch_size,
                )
            )
        default_time = row["numpy_by_epoch"][_epoch_label(DERIVED)]
        row["numpy_default"] = default_time
        row["speedup_default"] = row["python"] / default_time
        row["best_epoch"] = min(
            row["numpy_by_epoch"], key=row["numpy_by_epoch"].get
        )
        timings[name] = row

    # HYBRID (prep-round shape: with bookkeeping) under the derived epochs.
    hybrid_python = detect_hybrid(
        dataset,
        probabilities,
        accuracies,
        params_python,
        index=index,
        track_bookkeeping=True,
    )
    hybrid_numpy = detect_hybrid(
        dataset,
        probabilities,
        accuracies,
        params_numpy,
        index=index,
        track_bookkeeping=True,
    )
    identical = identical and (
        hybrid_numpy.result.decisions == hybrid_python.result.decisions
    )
    identical = identical and (hybrid_numpy.bookkeeping == hybrid_python.bookkeeping)
    timings["hybrid"] = {
        "python": _best_of(
            lambda: detect_hybrid(
                dataset,
                probabilities,
                accuracies,
                params_python,
                index=index,
                track_bookkeeping=True,
            ),
            repeats=2,
        ),
        "numpy_default": _best_of(
            lambda: detect_hybrid(
                dataset,
                probabilities,
                accuracies,
                params_numpy,
                index=index,
                track_bookkeeping=True,
            ),
            repeats=2,
        ),
    }
    timings["hybrid"]["speedup_default"] = (
        timings["hybrid"]["python"] / timings["hybrid"]["numpy_default"]
    )

    return {
        "world": {
            "n_sources": dataset.n_sources,
            "n_items": dataset.n_items,
            "n_values": dataset.n_values,
            "index_entries": index.n_entries,
            "incidences": incidences,
        },
        "timings_seconds": timings,
        "bit_identical": identical,
    }


def run(smoke: bool = False) -> dict:
    # BOUND+'s epoch batching only clears the 3x floor once pairs share
    # enough items (the timer/replay overhead amortises with scan
    # length), so smoke mode keeps the full 2400-item world and instead
    # drops the epoch sweep and the small-world data point — roughly a
    # quarter of the full runtime with the same acceptance bar.
    if smoke:
        large = _bench_world(WORLD_CONFIG, sweep=(DERIVED,))
        worlds = {"large_world": large}
    else:
        large = _bench_world(WORLD_CONFIG)
        worlds = {
            "large_world": large,
            "small_world": _bench_world(
                SMALL_WORLD_CONFIG, sweep=(DERIVED, 64, 128, 256)
            ),
        }
    passed = (
        all(w["bit_identical"] for w in worlds.values())
        and large["timings_seconds"]["bound"]["speedup_default"] >= 3.0
        and large["timings_seconds"]["bound+"]["speedup_default"] >= 3.0
    )
    return {
        "benchmark": "bound_backend",
        "smoke": smoke,
        "epoch_incidence_budget": EPOCH_INCIDENCE_BUDGET,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        **worlds,
        "check": {
            "target": (
                "bound and bound+ >= 3x under the derived epochs on the "
                "2400-item dense world, bit-identical outcomes"
            ),
            "passed": passed,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke run: same world, no epoch sweep or small-world point",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH, help="artifact path"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for scale in ("large_world", "small_world"):
        if scale not in report:
            continue
        world = report[scale]["world"]
        print(f"{scale}: {world['n_sources']} sources, {world['n_items']} items, "
              f"{world['incidences']:,} incidences")
        for name, row in report[scale]["timings_seconds"].items():
            sweep = ", ".join(
                f"{es}->{t:.3f}s" for es, t in row.get("numpy_by_epoch", {}).items()
            )
            print(
                f"  {name:7s} python={row['python']:.3f}s "
                f"numpy={row['numpy_default']:.3f}s "
                f"speedup={row['speedup_default']:.1f}x"
                + (f"  sweep[{sweep}]" if sweep else "")
            )
        print(f"  bit_identical={report[scale]['bit_identical']}")
    print(f"check: {report['check']['target']} -> passed={report['check']['passed']}")
    print(f"artifact -> {args.output}")
    return 0 if report["check"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
