"""Golden-fixture builder for INCREMENTAL's cross-round bookkeeping.

``tests/data/golden_incremental.json`` was captured at the last commit
whose ``prepare_incremental`` built the entry -> booked-pairs map
eagerly (c90a342), with ``backend="python"`` pinned.  It freezes

* ``reopen`` — a four-source world driven through a small drift, a tail
  re-open (``rho_value=0.0``) and a big score change on both of the
  re-opened pair's entries: every round's decisions (scores as
  ``float.hex``), :class:`~repro.core.incremental.RoundStats` and cost,
  and the final per-pair records;
* ``fusion`` — multi-round ``run_fusion`` under
  :class:`~repro.core.IncrementalDetector` on the ``stock_1day`` and
  ``book_cs`` profiles: per round a SHA-256 over the full decision table
  plus cost, and the detector's ``RoundStats`` history and final records.

The companion tests in ``tests/test_incremental.py`` hold the on-demand
map *and the columnar numpy state* to these values.  Apart from the
``records()`` accessor both backends' states share (``state.pairs`` at
that commit) the script uses nothing newer than that commit's public
API, so it can be pointed at an old checkout to re-derive the file.
Regenerate (only after an intentional behaviour change)::

    PYTHONPATH=src:. python tests/make_golden_incremental.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.core import (
    CopyParams,
    IncrementalDetector,
    incremental_round,
    prepare_incremental,
)
from repro.data import DatasetBuilder
from repro.fusion import FusionConfig, run_fusion
from repro.synth import make_profile

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_incremental.json"

#: (profile, scale) of the multi-round fusion runs.
FUSION_PROFILES = (("stock_1day", 0.02), ("book_cs", 0.15))
FUSION_ROUNDS = 8

REOPEN_ACCURACIES = [0.5, 0.6, 0.55, 0.45]
#: Base probabilities per item, then each round's overrides and rho_value.
REOPEN_BASE = {"ix": 0.97, "iy": 0.98, "m1": 0.05, "m2": 0.05, "m3": 0.05, "m4": 0.05}
REOPEN_ROUNDS = (
    ({"ix": 0.96}, 1.0),  # small drift on ix: its pair list gets built
    ({"ix": 0.2}, 0.0),  # the tail outgrows theta_ind: (A, B) re-opens
    ({"ix": 0.4, "iy": 0.6}, 0.0),  # big change on both of (A, B)'s entries
)


def reopen_world():
    """A and B share only the two tail values ``ix`` and ``iy``.

    C and D pair up with each of them on a low-probability value, so the
    four cross pairs are booked by the preparation round and (A, B) is
    not; ``ix``'s providers are A, B, C and ``iy``'s A, B, D.
    """
    builder = DatasetBuilder()
    for source in "ABC":
        builder.add(source, "ix", "x")
    for source in "ABD":
        builder.add(source, "iy", "y")
    for item, pair in (("m1", "AC"), ("m2", "BC"), ("m3", "AD"), ("m4", "BD")):
        for source in pair:
            builder.add(source, item, "f")
    return builder.build()


def reopen_probabilities(dataset, overrides: dict) -> list[float]:
    by_item = {**REOPEN_BASE, **overrides}
    return [
        by_item[dataset.item_names[dataset.value_item[value]]]
        for value in range(dataset.n_values)
    ]


def decision_rows(result) -> list[dict]:
    return [
        {
            "pair": list(pair),
            "c_fwd": decision.c_fwd.hex(),
            "c_bwd": decision.c_bwd.hex(),
            "independent": decision.posterior.independent.hex(),
            "copying": decision.copying,
            "early": decision.early,
        }
        for pair, decision in sorted(result.decisions.items())
    ]


def cost_row(result) -> dict:
    cost = result.cost
    return {
        "computations": cost.computations,
        "values_examined": cost.values_examined,
        "pairs_considered": cost.pairs_considered,
    }


def record_rows(state) -> list[dict]:
    return [
        {
            "pair": list(pair),
            "copying": record.copying,
            "c_base_fwd": record.c_base_fwd.hex(),
            "c_base_bwd": record.c_base_bwd.hex(),
            "decision_pos": record.decision_pos,
            "n_after": record.n_after,
            "n_total": record.n_total,
            "l": record.l,
        }
        for pair, record in sorted(state.records().items())
    ]


def _digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_reopen(backend: str, after_prepare=None, schedule=REOPEN_ROUNDS):
    """Drive the re-open scenario; returns ``(payload, state)``.

    ``after_prepare(state)`` runs between the preparation round and the
    first incremental round (the tests use it to pre-fill the map);
    ``schedule`` lets them stop the drive early.
    """
    params = CopyParams(backend=backend)
    dataset = reopen_world()
    result, state = prepare_incremental(
        dataset, reopen_probabilities(dataset, {}), REOPEN_ACCURACIES, params
    )
    if after_prepare is not None:
        after_prepare(state)
    rounds = [{"decisions": decision_rows(result), "cost": cost_row(result)}]
    for overrides, rho_value in schedule:
        result = incremental_round(
            state,
            reopen_probabilities(dataset, overrides),
            REOPEN_ACCURACIES,
            params,
            rho_value=rho_value,
        )
        rounds.append(
            {
                "decisions": decision_rows(result),
                "cost": cost_row(result),
                "stats": asdict(state.history[-1]),
            }
        )
    return {"rounds": rounds, "records": record_rows(state)}, state


def run_fusion_profile(
    backend: str, profile: str, scale: float, detector=None, fusion_backend=None
):
    """Multi-round fusion under INCREMENTAL; returns ``(payload, detector)``.

    ``fusion_backend="python"`` keeps the truth updates on the reference
    loops, so a numpy detector sees bit-equal inputs every round and its
    payload must equal the python-pinned fixture.
    """
    params = CopyParams(backend=backend)
    if detector is None:
        detector = IncrementalDetector(params)
    fusion = run_fusion(
        make_profile(profile, scale).dataset,
        params,
        detector=detector,
        config=FusionConfig(max_rounds=FUSION_ROUNDS),
        fusion_backend=fusion_backend,
    )
    payload = {
        "rounds": [
            {
                "decisions_sha256": _digest(decision_rows(record.detection)),
                "n_decisions": len(record.detection.decisions),
                "cost": cost_row(record.detection),
            }
            for record in fusion.rounds
        ],
        "history": [asdict(stats) for stats in detector.state.history],
        "records_sha256": _digest(record_rows(detector.state)),
    }
    return payload, detector


def golden_payload() -> dict:
    return {
        "reopen": run_reopen("python")[0],
        "fusion": {
            profile: run_fusion_profile("python", profile, scale)[0]
            for profile, scale in FUSION_PROFILES
        },
    }


def main() -> int:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(golden_payload(), separators=(",", ":")) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
