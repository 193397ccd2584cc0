"""Golden-fixture builder for the bound scans (and its regen entry point).

``tests/data/golden_bound.json`` freezes the *complete* observable
outcome — verdicts, exact scores (as ``float.hex`` strings, so the round
trip is bit-exact), posteriors, cost counters, and the HYBRID
preparation round's INCREMENTAL bookkeeping — of every bound-family
method on a small deterministic synthetic world, and (under the
``"saturated"`` key) on a dense world whose agreed-on values sit at
probability exactly 1.0 with all-distinct accuracies — the input on which
the numpy backend takes its logs from the probability-keyed grid.  The
companion test in ``tests/test_bound_backend.py`` diffs both backends
against the fixture, catching *any* silent behaviour drift.

Regenerate (only after an intentional behaviour change)::

    PYTHONPATH=src:. python tests/make_golden_bound.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.conformance.generators import RandomChooser, saturated_world
from repro.core import CopyParams, detect, detect_hybrid
from repro.fusion import vote_probabilities
from repro.synth.generator import GeneratorConfig, generate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bound.json"

WORLD_CONFIG = GeneratorConfig(
    n_items=40,
    n_independent_sources=12,
    n_copier_groups=2,
    copiers_per_group=2,
    seed=7,
)

METHODS = ("bound", "bound+", "hybrid")


def golden_world():
    """The fixture's deterministic detection problem."""
    world = generate(WORLD_CONFIG)
    dataset = world.dataset
    probabilities = vote_probabilities(dataset)
    # Deterministic, non-uniform accuracies: exercises the per-source
    # clamped terms without relying on fusion state.
    accuracies = [0.55 + 0.1 * (source % 4) for source in range(dataset.n_sources)]
    return dataset, probabilities, accuracies


def golden_saturated_world():
    """The dense saturated problem (13 sources x 19 items)."""
    chooser = RandomChooser(random.Random(11))
    return saturated_world(chooser, max_sources=14, max_items=20).materialize()


def _decision_row(pair, decision) -> dict:
    return {
        "pair": list(pair),
        "c_fwd": decision.c_fwd.hex(),
        "c_bwd": decision.c_bwd.hex(),
        "independent": decision.posterior.independent.hex(),
        "forward": decision.posterior.forward.hex(),
        "backward": decision.posterior.backward.hex(),
        "copying": decision.copying,
        "early": decision.early,
    }


def golden_payload(backend: str) -> dict:
    """Full bound-family outcome for one backend, JSON-ready.

    The saturated world's outcome rides under its own key, after the
    original world's, so the older entries' bytes never move.
    """
    params = CopyParams(backend=backend)
    payload = {"backend": backend, **_world_payload(golden_world(), params)}
    payload["saturated"] = _world_payload(golden_saturated_world(), params)
    return payload


def _world_payload(world, params: CopyParams) -> dict:
    dataset, probabilities, accuracies = world
    payload: dict = {"methods": {}}
    for method in METHODS:
        result = detect(dataset, probabilities, accuracies, params, method=method)
        payload["methods"][method] = {
            "decisions": [
                _decision_row(pair, decision)
                for pair, decision in sorted(result.decisions.items())
            ],
            "cost": {
                "computations": result.cost.computations,
                "values_examined": result.cost.values_examined,
                "pairs_considered": result.cost.pairs_considered,
            },
        }
    outcome = detect_hybrid(
        dataset, probabilities, accuracies, params, track_bookkeeping=True
    )
    payload["hybrid_bookkeeping"] = [
        {
            "pair": list(pair),
            "copying": book.copying,
            "early": book.early,
            "c_base_fwd": book.c_base_fwd.hex(),
            "c_base_bwd": book.c_base_bwd.hex(),
            "decision_pos": book.decision_pos,
            "n_before": book.n_before,
            "n_after": book.n_after,
            "l": book.l,
        }
        for pair, book in sorted(outcome.bookkeeping.items())
    ]
    return payload


def main() -> int:
    payload = golden_payload("python")
    del payload["backend"]  # the fixture is backend-agnostic: both must match
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=None, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    n_pairs = len(payload["methods"]["bound"]["decisions"])
    print(f"wrote {GOLDEN_PATH} ({n_pairs} pairs per method)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
