"""Benchmark inputs: the pinned world, shuffled by ``--seed``, as CSV files."""

from __future__ import annotations

import csv
import hashlib
import random
from pathlib import Path

from registry import STREAM_FEED_RESERVE

HEADER = ["source", "item", "value"]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_claims(path: Path, rows) -> None:
    """The loader's claims format (RFC-4180, header row)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(HEADER)
        writer.writerows(rows)


def build_inputs(workload, seed: int, out_dir: Path, tiny: bool = False) -> dict:
    """Generate the workload's world and write its CSV file(s) into ``out_dir``.

    ``canonical.csv`` is the world exactly as :mod:`repro.synth` produced it
    (its SHA-256 is what the registry pins); ``claims.csv`` is the same claims
    in ``--seed`` order — the only file the batch program sees.  The stream
    workload feeds the same claims in the same order for every seed (which
    claims an epoch sees decides how many rounds it takes, and with that
    ``setup_s``, freshness and the service's memory): ``--seed`` orders the
    rows of ``base.csv``, as it orders the batch CSV.
    """
    from repro.data import save_claims

    out_dir.mkdir(parents=True, exist_ok=True)
    world = workload.world(tiny)
    dataset = world.dataset
    save_claims(dataset, out_dir / "canonical.csv")
    rows = [
        (dataset.source_names[s], dataset.item_names[i], dataset.value_label[v])
        for s, i, v in dataset.iter_claims()
    ]
    if workload.kind == "stream":
        random.Random(0).shuffle(rows)
        reserve = min(STREAM_FEED_RESERVE, len(rows) // 5)
        base, feed = rows[: len(rows) - reserve], rows[len(rows) - reserve :]
        random.Random(seed).shuffle(base)
        rows = base + feed
    else:
        random.Random(seed).shuffle(rows)
    inputs = {
        "world": world,
        "rows": rows,
        "sha256": {"canonical.csv": file_sha256(out_dir / "canonical.csv")},
    }
    if workload.kind == "batch":
        files = {"claims.csv": rows}
    else:
        inputs["feed"] = feed
        files = {"base.csv": base}
    for name, file_rows in files.items():
        write_claims(out_dir / name, file_rows)
        inputs["sha256"][name] = file_sha256(out_dir / name)
    return inputs
