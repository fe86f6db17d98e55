"""Deterministic grid RTS: state, policy evaluation, and match execution."""
from .actions import Action
from .engine import (
    FEATURE_KINDS,
    DecisionEntry,
    MatchRecord,
    SharedParts,
    play_match,
    snapshot_digest,
    step,
)
from .evaluator import behaviour_form, distances, evaluate_policy, resolve_joint
from .state import GameState, Unit, restore_state, state_from_map_dict
from .units import DEFAULT_STATS, UnitStats

__all__ = [
    "Action",
    "DEFAULT_STATS",
    "DecisionEntry",
    "FEATURE_KINDS",
    "GameState",
    "MatchRecord",
    "SharedParts",
    "Unit",
    "UnitStats",
    "behaviour_form",
    "distances",
    "evaluate_policy",
    "play_match",
    "resolve_joint",
    "restore_state",
    "snapshot_digest",
    "state_from_map_dict",
    "step",
]
