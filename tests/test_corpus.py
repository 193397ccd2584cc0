"""Replay the conformance regression corpus (tier-1, forever).

Every fixture under ``tests/data/corpus/`` is a complete, shrunk
(world, configuration) case the differential engine once flagged — or a
seed case pinning a behaviour worth replaying (near-tie truth breaking,
``theta_cp`` float edges, the dense lockstep regime).  Re-running them
on every test run guarantees a fixed divergence can never silently
return.  New fixtures appear automatically:
``repro-copydetect conformance --corpus tests/data/corpus`` writes any
fresh divergence here, and this module picks it up without edits.
"""

import json
from pathlib import Path

import pytest

from repro.conformance import corpus_paths, load_case, replay_case

CORPUS_DIR = Path(__file__).parent / "data" / "corpus"

FIXTURES = corpus_paths(CORPUS_DIR)


def test_corpus_is_present():
    """The seed fixtures ship with the repo; an empty corpus means a
    packaging or path regression, not a clean bill of health."""
    assert len(FIXTURES) >= 4


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_replays_clean(path):
    divergences = replay_case(path)
    assert divergences == [], (
        f"{path.name} diverges again:\n" + "\n".join(divergences[:5])
    )


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_is_well_formed(path):
    world, config, meta = load_case(path)
    assert meta["version"] == 1
    assert meta["id"] == path.stem
    assert world.n_sources >= 2
    assert config.label  # parses back into a valid CaseConfig


def test_unknown_config_field_names_the_fixture_and_the_field(tmp_path):
    """A fixture written by a build with a config axis this one lacks
    fails to load with a message naming the file and the field — not a
    bare ``TypeError`` from the dataclass constructor."""
    payload = json.loads(FIXTURES[0].read_text())
    payload["config"]["shard_by"] = "items"
    path = tmp_path / FIXTURES[0].name
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        load_case(path)
    assert str(path) in str(info.value)
    assert "unknown config field(s) shard_by" in str(info.value)
