"""Shared fixtures and the centralized hypothesis profiles.

Hypothesis settings live here — not scattered per-module — so CI and
local runs stay deliberately different:

* ``dev`` (default) — the library defaults minus the deadline (the
  vectorized kernels' first-call numpy warm-up blows the 200 ms default
  on slow machines, and per-example timing is noise we never act on).
* ``ci`` — also caps ``max_examples`` below the library default: the
  suite runs on three Python versions per push, and the nightly
  conformance grid (thousands of seeded cases) carries the deep
  exploration budget instead.

Select with ``HYPOTHESIS_PROFILE=ci`` (the CI workflow exports it);
individual tests still override per-@settings where a specific budget
is part of the test's design.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import CopyParams
from repro.data import (
    Dataset,
    motivating_accuracies,
    motivating_example,
    motivating_value_probabilities,
)

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, max_examples=60, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _fresh_layout_warnings():
    """The sparse-layout warning fires once per process; tests that
    assert on it must not depend on which test resolved a layout first."""
    from repro.core.pairspace import _warn_sparse

    _warn_sparse.cache_clear()


@pytest.fixture(scope="session")
def params() -> CopyParams:
    """The paper's default parameters (alpha=.1, s=.8, n=50)."""
    return CopyParams()


@pytest.fixture(scope="session")
def example() -> Dataset:
    """The Table I motivating example."""
    return motivating_example()


@pytest.fixture(scope="session")
def example_accuracies(example: Dataset) -> list[float]:
    return motivating_accuracies(example)


@pytest.fixture(scope="session")
def example_probabilities(example: Dataset) -> list[float]:
    return motivating_value_probabilities(example)
