"""Conformance engine: differential grid fuzzing against the reference.

The paper's contract is exactness — BOUND/BOUND+ decisions, ACCU /
ACCUCOPY truths and copy verdicts must not drift when the implementation
changes.  This subsystem turns that contract into an executable sweep:

* :mod:`~repro.conformance.generators` — seeded world generators
  (random, adversarial clone/tie/extreme worlds, Table V profile worlds,
  ``theta_cp`` threshold-edge bisection) shared with the hypothesis
  test-suite strategies;
* :mod:`~repro.conformance.engine` — the (method x backend x executor x
  reduce x partition count x fusion) grid runner, diffing every configuration
  against the pure-Python reference under a bit-exact or 1e-9 contract,
  with greedy world shrinking on divergence;
* :mod:`~repro.conformance.corpus` — versioned, replayable regression
  fixtures the tier-1 suite executes forever.

Surfaced on the CLI as ``repro-copydetect conformance`` (see the README's
"Conformance & soak" section); the green full-grid run is the soak
evidence behind the ``backend="numpy"`` default.
"""

from .corpus import (
    CORPUS_VERSION,
    DEFAULT_CORPUS,
    case_id,
    corpus_paths,
    load_case,
    replay_case,
    save_case,
)
from .engine import (
    GRIDS,
    NUMERIC_TOL,
    CaseConfig,
    CaseOutcome,
    ConformanceReport,
    Divergence,
    full_grid,
    run_case,
    run_grid,
    shrink_world,
    smoke_grid,
)
from .generators import (
    DrawChooser,
    RandomChooser,
    World,
    adversarial_world,
    build_dataset,
    generate_world,
    profile_world,
    random_world,
    saturated_world,
    shared_run_world,
    theta_edge_worlds,
    world_from_problem,
)

__all__ = [
    "CORPUS_VERSION",
    "CaseConfig",
    "CaseOutcome",
    "ConformanceReport",
    "DEFAULT_CORPUS",
    "Divergence",
    "DrawChooser",
    "GRIDS",
    "NUMERIC_TOL",
    "RandomChooser",
    "World",
    "adversarial_world",
    "build_dataset",
    "case_id",
    "corpus_paths",
    "full_grid",
    "generate_world",
    "load_case",
    "profile_world",
    "random_world",
    "replay_case",
    "run_case",
    "run_grid",
    "save_case",
    "saturated_world",
    "shared_run_world",
    "shrink_world",
    "smoke_grid",
    "theta_edge_worlds",
    "world_from_problem",
]
