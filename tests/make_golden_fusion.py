"""Golden-fixture builder for the fusion loop (and its regen entry point).

``tests/data/golden_fusion.json`` freezes the *complete* observable
outcome of ``run_fusion`` — fused truths, ``float.hex``-exact final
accuracies and value probabilities, per-round copying verdicts and the
convergence flag — for every detector method (``none`` = plain ACCU
through ``incremental``) on the same deterministic synthetic world the
bound goldens use.  Everything is computed with the *reference* backend
pinned explicitly (``CopyParams(backend="python")``,
``fusion_backend="python"``), so the fixture is independent of the
library's default backend: flipping the default to ``"numpy"`` must
leave this file byte-identical, which ``tests/test_golden_fusion.py``
asserts on every run.

Regenerate (only after an intentional behaviour change of the
*reference*)::

    PYTHONPATH=src:. python tests/make_golden_fusion.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import CopyParams, IncrementalDetector, SingleRoundDetector
from repro.fusion import FusionConfig

from tests.make_golden_bound import WORLD_CONFIG  # the shared golden world
from tests.rounds import fuse_keeping_rounds

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fusion.json"

METHODS = ("none", "pairwise", "index", "bound", "bound+", "hybrid", "incremental")

#: Pinned rounds: tolerance 0 never converges, so every method runs
#: exactly five rounds and the fixture is schedule-independent.
ROUNDS = FusionConfig(max_rounds=5, min_rounds=5, tolerance=0.0)


def golden_world():
    """The fixture's deterministic dataset (same world as golden_bound)."""
    from repro.synth.generator import generate

    return generate(WORLD_CONFIG).dataset


def _detector(method: str, params: CopyParams):
    if method == "none":
        return None
    if method == "incremental":
        return IncrementalDetector(params)
    return SingleRoundDetector(params, method=method)


def round_copying(detections) -> list[list[list[int]]]:
    """Each round's copying pairs, sorted (``[]`` for a round without
    detection)."""
    return [
        sorted(list(pair) for pair in (d.copying_pairs() if d else set()))
        for d in detections
    ]


def golden_payload() -> dict:
    """Full reference-backend fusion outcome for every method."""
    dataset = golden_world()
    params = CopyParams(backend="python")
    payload: dict = {"methods": {}}
    for method in METHODS:
        result, detections = fuse_keeping_rounds(
            dataset,
            params,
            _detector(method, params),
            config=ROUNDS,
            fusion_backend="python",
        )
        payload["methods"][method] = {
            "converged": result.converged,
            "n_rounds": result.n_rounds,
            "chosen": [
                [item, value] for item, value in sorted(result.chosen.items())
            ],
            "accuracies": [a.hex() for a in result.accuracies],
            "probabilities": [p.hex() for p in result.probabilities],
            "round_copying": round_copying(detections),
        }
    return payload


def main() -> int:
    payload = golden_payload()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=None, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    n_values = len(payload["methods"]["none"]["probabilities"])
    print(f"wrote {GOLDEN_PATH} ({len(METHODS)} methods, {n_values} values)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
