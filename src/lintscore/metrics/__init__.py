"""Behavior-similarity metrics and baselines."""
from .baselines import closest_feature, closest_syntax, rand_index
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
from .opponents import Opponent, OpponentSet

__all__ = [
    "BehaviorReport",
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
    "mean_feature_vector",
    "outcome_metric",
    "rand_index",
]
