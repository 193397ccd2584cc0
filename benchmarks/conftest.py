"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_table*`` / ``bench_fig*`` / ``bench_ablation_*`` module
reproduces one table, figure or ablation of the paper (its docstring
names which; README.md, "Tests, goldens, benchmarks").  They are
opt-in pytest modules, not the repo benchmark — that is
``BENCHMARK.json`` + ``benchmarks/e2e/``.  Conventions:

* Worlds are generated at module scope from the Table V profiles, at the
  scales in ``BENCH_SCALES`` (full paper sizes are hours in pure Python;
  the shapes the paper reports — who beats whom, by what order — hold
  at these scales, which is what each module's report compares).
* Heavy end-to-end runs are timed with ``benchmark.pedantic(...,
  rounds=1)`` — the paper's tables are one-shot wall-clock numbers, not
  micro-benchmarks.
* Each module's final ``test_report_*`` renders the paper-style table,
  prints it, and appends it to ``benchmarks/output/<module>.txt``
  (git-ignored) so the reproduction artefacts survive the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import CopyParams
from repro.synth import SyntheticWorld, make_profile

#: Per-profile scale factors used throughout the benches.
BENCH_SCALES = {
    "book_cs": 0.25,
    "stock_1day": 0.05,
    "book_full": 0.05,
    "stock_2wk": 0.02,
}

#: The paper samples 1% of Stock-2wk and 10% elsewhere (Section VI-A).
SAMPLE_FRACTIONS = {
    "book_cs": 0.10,
    "stock_1day": 0.10,
    "book_full": 0.10,
    "stock_2wk": 0.10,
}

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_params() -> CopyParams:
    return CopyParams()


@pytest.fixture(scope="session")
def worlds() -> dict[str, SyntheticWorld]:
    """All four profile worlds at bench scales (generated once)."""
    return {
        name: make_profile(name, scale=scale)
        for name, scale in BENCH_SCALES.items()
    }


def emit_report(module_name: str, table: str) -> None:
    """Print a rendered table and persist it under benchmarks/output/."""
    print()
    print(table)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{module_name}.txt"
    with open(path, "a", encoding="utf-8") as f:
        f.write(table)
        f.write("\n\n")
