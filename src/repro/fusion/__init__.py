"""Truth finding (data fusion): VOTE, ACCU/ACCUCOPY, and Dempster-Shafer."""

from .accu import (
    accuracy_score,
    choose_values,
    independence_weights,
    update_accuracies,
    value_probabilities,
)
from .credibility import CredibilityModel
from .ds import (
    DSRound,
    TotalConflictError,
    ds_value_probabilities,
    ds_value_probabilities_columnar,
    support_masses,
)
from .pipeline import (
    FUSION_METHOD_VALUES,
    FusionConfig,
    FusionResult,
    RoundDetector,
    RoundRecord,
    run_fusion,
)
from .voting import vote, vote_probabilities
from .workspace import FusionWorkspace

__all__ = [
    "CredibilityModel",
    "DSRound",
    "FUSION_METHOD_VALUES",
    "FusionConfig",
    "FusionResult",
    "FusionWorkspace",
    "RoundDetector",
    "RoundRecord",
    "TotalConflictError",
    "accuracy_score",
    "choose_values",
    "ds_value_probabilities",
    "ds_value_probabilities_columnar",
    "independence_weights",
    "run_fusion",
    "support_masses",
    "update_accuracies",
    "value_probabilities",
    "vote",
    "vote_probabilities",
]
