"""repro — scalable copy detection for structured data.

A production-grade reproduction of *"Scaling up Copy Detection"* (Xian Li,
Xin Luna Dong, Kenneth B. Lyons, Weiyi Meng, Divesh Srivastava — ICDE
2015), including every substrate the paper builds on:

* :mod:`repro.core` — the Bayesian copy-detection algorithms: PAIRWISE,
  INDEX, BOUND, BOUND+, HYBRID, INCREMENTAL.
* :mod:`repro.fusion` — the iterative truth-finding loop (VOTE / ACCU /
  ACCUCOPY, Dong et al. VLDB 2009) the detectors plug into.
* :mod:`repro.data` — datasets, gold standards, the paper's motivating
  example, CSV persistence.
* :mod:`repro.synth` — synthetic worlds shaped like the paper's four
  evaluation datasets, with planted copying.
* :mod:`repro.sampling` — BYITEM / BYCELL / SCALESAMPLE.
* :mod:`repro.nra` — Fagin's NRA and the FAGININPUT baseline.
* :mod:`repro.simjoin` — set-overlap counting (shared items per pair).
* :mod:`repro.eval` — metrics and the experiment runner behind every
  table and figure reproduction in ``benchmarks/``.

Quickstart::

    from repro import CopyParams, run_fusion, SingleRoundDetector
    from repro.synth import stock_1day

    world = stock_1day(scale=0.05)
    params = CopyParams()
    detector = SingleRoundDetector(params, method="hybrid")
    result = run_fusion(world.dataset, params, detector=detector)
    print(result.final_detection().copying_pairs())
"""

from .core import (
    CopyParams,
    DetectionResult,
    EntryOrdering,
    IncrementalDetector,
    InvertedIndex,
    PairDecision,
    SingleRoundDetector,
    detect,
)
from .data import Dataset, DatasetBuilder, GoldStandard
from .eval import run_method
from .fusion import FusionConfig, FusionResult, run_fusion
from .synth import GeneratorConfig, SyntheticWorld, generate, make_profile

__version__ = "1.0.0"

__all__ = [
    "CopyParams",
    "Dataset",
    "DatasetBuilder",
    "DetectionResult",
    "EntryOrdering",
    "FusionConfig",
    "FusionResult",
    "GeneratorConfig",
    "GoldStandard",
    "IncrementalDetector",
    "InvertedIndex",
    "PairDecision",
    "SingleRoundDetector",
    "SyntheticWorld",
    "__version__",
    "detect",
    "generate",
    "make_profile",
    "run_fusion",
    "run_method",
]
