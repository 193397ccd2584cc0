"""Golden fusion fixtures: the reference loop is frozen byte-for-byte.

Companion to ``tests/make_golden_fusion.py``.  The fixture is computed
with the reference backend pinned explicitly, so these tests prove two
things at once: the pure-Python fusion loop has not drifted, and the
library's *default* backend (now ``"numpy"``) cannot leak into code that
asks for the reference — the flip is inert for ``backend="python"``.
"""

import json

import pytest

from repro.core import CopyParams
from repro.fusion import FusionConfig

from tests.make_golden_fusion import (
    GOLDEN_PATH,
    METHODS,
    ROUNDS,
    _detector,
    golden_payload,
    golden_world,
    round_copying,
)
from tests.rounds import fuse_keeping_rounds


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenFusion:
    def test_reference_matches_fixture_exactly(self, golden):
        """Regenerating under backend='python' reproduces the committed
        fixture byte-for-byte (float.hex round trip included)."""
        assert golden_payload() == golden

    def test_fixture_is_nontrivial(self, golden):
        assert set(golden["methods"]) == set(METHODS)
        for method, payload in golden["methods"].items():
            assert payload["n_rounds"] == 5
            assert payload["chosen"]
            assert len(payload["accuracies"]) == 16
            if method != "none":
                # Detection ran: the planted copiers must be caught in
                # at least one round.
                assert any(pairs for pairs in payload["round_copying"])

    @pytest.mark.parametrize("method", METHODS)
    def test_numpy_backend_agrees_on_the_golden_world(self, golden, method):
        """The vectorized stack reproduces the frozen truths and verdicts
        (scores within the kernels' 1e-9 re-association bound)."""
        pytest.importorskip("numpy")
        dataset = golden_world()
        params = CopyParams(backend="numpy")
        result, detections = fuse_keeping_rounds(
            dataset,
            params,
            _detector(method, params),
            config=ROUNDS,
            fusion_backend="numpy",
        )
        frozen = golden["methods"][method]
        assert [[i, v] for i, v in sorted(result.chosen.items())] == frozen["chosen"]
        assert result.converged == frozen["converged"]
        # End-state accuracies are compared at 1e-6, not the kernels'
        # per-step 1e-9: five rounds of feedback through the detectors
        # amplify re-association error (measured ~9e-8 on this world for
        # the bound-family methods).  Per-step 1e-9 conformance along
        # real trajectories is enforced by the conformance engine's
        # lockstep fusion mode; truths and verdicts stay exact here.
        for got, frozen_hex in zip(result.accuracies, frozen["accuracies"]):
            assert got == pytest.approx(float.fromhex(frozen_hex), abs=1e-6)
        assert round_copying(detections) == frozen["round_copying"]

    def test_pinned_rounds_never_converge(self):
        """The fixture's schedule assumption: tolerance 0 pins 5 rounds."""
        assert ROUNDS.max_rounds == ROUNDS.min_rounds == 5
        assert ROUNDS.tolerance == 0.0
        assert isinstance(ROUNDS, FusionConfig)
