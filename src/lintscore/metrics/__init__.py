"""Behavior-similarity metrics, baselines, and black-box I/O comparison."""
from .baselines import (
    closest_feature,
    closest_syntax,
    rand_index,
    select_policy_indices,
)
from .behavior import (
    BehaviorReport,
    ShardError,
    action_metric,
    compare,
    decision_states,
    feature_distance,
    feature_metric,
    mean_feature_vector,
    outcome_metric,
)
from .io_compare import (
    ExecFailure,
    IoReport,
    generate_suite,
    io_metric,
    load_suite,
    normalize_output,
)
from .opponents import Opponent, OpponentSet

__all__ = [
    "BehaviorReport",
    "ExecFailure",
    "IoReport",
    "Opponent",
    "OpponentSet",
    "ShardError",
    "action_metric",
    "closest_feature",
    "closest_syntax",
    "compare",
    "decision_states",
    "feature_distance",
    "feature_metric",
    "generate_suite",
    "io_metric",
    "load_suite",
    "mean_feature_vector",
    "normalize_output",
    "outcome_metric",
    "rand_index",
    "select_policy_indices",
]
