"""Hypothesis strategies shared across property-based tests.

Thin re-export shim: the generation logic lives in
:mod:`repro.conformance.generators` so the conformance engine's seeded
fuzzing and the test suite's hypothesis strategies share one
implementation.  Import from here in tests (stable address); import from
``repro.conformance`` in library code.
"""

from __future__ import annotations

from repro.conformance.generators import (  # noqa: F401
    ACCURACY_MENUS,
    EXTREME_PROBABILITIES,
    accuracies,
    adversarial_worlds,
    datasets,
    probabilities,
    saturated_worlds,
    shared_run_world,
    theta_edge_worlds,
    worlds,
)

__all__ = [
    "ACCURACY_MENUS",
    "EXTREME_PROBABILITIES",
    "accuracies",
    "adversarial_worlds",
    "datasets",
    "probabilities",
    "saturated_worlds",
    "shared_run_world",
    "theta_edge_worlds",
    "worlds",
]
