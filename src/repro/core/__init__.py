"""Core copy-detection algorithms: the paper's primary contribution."""

from .bound import (
    DEFAULT_HYBRID_THRESHOLD,
    BoundEval,
    PairBookkeeping,
    PrefixScanState,
    ScanOutcome,
    detect_bound,
    detect_bound_plus,
    detect_hybrid,
    scan_with_bounds,
)
from .contribution import (
    CopyPosterior,
    different_value_score,
    no_copy_probability,
    posterior,
    pr_independent,
    pr_single,
    same_value_score,
    same_value_scores_both,
)
from .detector import (
    METHODS,
    PARALLEL_METHODS,
    IncrementalDetector,
    SingleRoundDetector,
    detect,
    make_detector,
)
from .explain import EvidenceItem, PairExplanation, explain_pair
from .incremental import (
    IncrementalState,
    RoundStats,
    incremental_round,
    prepare_incremental,
)
from .index import EntryOrdering, IndexEntry, InvertedIndex
from .index_algo import detect_index
from .kernel import ColumnarEntries, PairTable, scan_columnar
from .maxscore import max_score, max_score_bruteforce
from .pairwise import detect_pairwise
from .params import (
    BACKENDS,
    EXECUTORS,
    PAIR_LAYOUTS,
    REDUCE_MODES,
    CopyParams,
)
from .result import (
    CostCounter,
    DetectionResult,
    PairDecision,
    PairNotObservedError,
)

__all__ = [
    "BACKENDS",
    "EXECUTORS",
    "BoundEval",
    "ColumnarEntries",
    "CopyParams",
    "CopyPosterior",
    "CostCounter",
    "DEFAULT_HYBRID_THRESHOLD",
    "DetectionResult",
    "EntryOrdering",
    "EvidenceItem",
    "IncrementalDetector",
    "IncrementalState",
    "IndexEntry",
    "InvertedIndex",
    "METHODS",
    "PAIR_LAYOUTS",
    "PARALLEL_METHODS",
    "PairBookkeeping",
    "PairDecision",
    "PairNotObservedError",
    "PairTable",
    "PairExplanation",
    "PrefixScanState",
    "REDUCE_MODES",
    "RoundStats",
    "ScanOutcome",
    "SingleRoundDetector",
    "detect",
    "detect_bound",
    "detect_bound_plus",
    "detect_hybrid",
    "detect_index",
    "detect_pairwise",
    "different_value_score",
    "explain_pair",
    "incremental_round",
    "make_detector",
    "max_score",
    "max_score_bruteforce",
    "no_copy_probability",
    "posterior",
    "pr_independent",
    "pr_single",
    "prepare_incremental",
    "same_value_score",
    "same_value_scores_both",
    "scan_columnar",
    "scan_with_bounds",
]
