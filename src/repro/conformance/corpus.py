"""The versioned regression corpus: divergent worlds, replayable forever.

Every divergence the grid fuzzer confirms is shrunk and frozen here as a
JSON fixture under ``tests/data/corpus/``.  The tier-1 suite
(``tests/test_corpus.py``) replays every fixture on every run, so once a
divergence is fixed it can never silently come back.

Fixtures are fully self-contained and lossless:

* claims as ``(source, item, value)`` string triples in interning order
  (plus the full source list, so claimless sources survive);
* probabilities and accuracies as ``float.hex`` strings — the round trip
  is bit-exact, which the ``bitexact`` contract requires;
* the complete :class:`~repro.conformance.engine.CaseConfig`;
* provenance metadata (schema version, generator kind, seed, the
  divergence details observed at capture time).

``version`` gates the schema: a reader refuses fixtures written by a
newer schema rather than misinterpreting them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

from .engine import CaseConfig, run_case
from .generators import World

#: Current fixture schema version.
CORPUS_VERSION = 1

#: Default corpus location (relative to the repo root).
DEFAULT_CORPUS = Path("tests") / "data" / "corpus"


def _encode_world(world: World) -> dict:
    return {
        "kind": world.kind,
        "seed": world.seed,
        "sources": list(world.sources),
        "claims": [list(claim) for claim in world.claims],
        "probabilities": [
            [item, value, prob.hex()]
            for (item, value), prob in world.prob_by_value.items()
        ],
        "accuracies": [
            [source, acc.hex()] for source, acc in world.acc_by_source.items()
        ],
    }


def _decode_world(payload: dict) -> World:
    return World(
        kind=payload["kind"],
        sources=list(payload["sources"]),
        claims=[tuple(claim) for claim in payload["claims"]],
        prob_by_value={
            (item, value): float.fromhex(prob)
            for item, value, prob in payload["probabilities"]
        },
        acc_by_source={
            source: float.fromhex(acc) for source, acc in payload["accuracies"]
        },
        seed=payload.get("seed"),
    )


def case_id(world: World, config: CaseConfig) -> str:
    """Deterministic fixture name: config label + world kind + digest."""
    digest = hashlib.sha256(
        json.dumps(
            [_encode_world(world), asdict(config)], sort_keys=True
        ).encode()
    ).hexdigest()[:10]
    label = f"{config.label}-{world.kind}".replace(":", "-").replace("+", "plus")
    return f"{label}-{digest}"


def save_case(
    world: World,
    config: CaseConfig,
    details: list[str],
    corpus_dir: str | Path = DEFAULT_CORPUS,
    origin: str = "fuzzer",
) -> Path:
    """Serialize a (world, config) case into the corpus; returns the path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CORPUS_VERSION,
        "id": case_id(world, config),
        "origin": origin,
        "config": asdict(config),
        "world": _encode_world(world),
        "divergence_at_capture": details,
    }
    path = corpus_dir / f"{payload['id']}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_case(path: str | Path) -> tuple[World, CaseConfig, dict]:
    """Load a fixture; returns ``(world, config, metadata)``.

    Raises:
        ValueError: for a fixture written by a newer schema version, or
            whose config names a field :class:`CaseConfig` does not have.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if not isinstance(version, int) or version > CORPUS_VERSION:
        raise ValueError(
            f"{path}: corpus schema version {version!r} is newer than "
            f"this library's {CORPUS_VERSION}"
        )
    unknown = sorted(set(payload["config"]) - {f.name for f in fields(CaseConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config field(s) {', '.join(unknown)}")
    return (
        _decode_world(payload["world"]),
        CaseConfig(**payload["config"]),
        {k: v for k, v in payload.items() if k not in ("world", "config")},
    )


def replay_case(path: str | Path) -> list[str]:
    """Re-run a fixture; returns the current divergences (empty = fixed)."""
    world, config, _ = load_case(path)
    return run_case(world, config).divergences


def corpus_paths(corpus_dir: str | Path = DEFAULT_CORPUS) -> list[Path]:
    """All fixture files in a corpus directory, sorted for stable runs."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return sorted(corpus_dir.glob("*.json"))
