"""The three behavior-similarity measures between two policies.

All comparisons run against a fixed opponent set:

* action: agreement of per-decision-state joint assignments, over the union
  of decision states visited by the first policy's matches;
* outcome: agreement of win/draw/loss signatures;
* feature: normalized distance between per-match production/harvest count
  vectors (this one is a distance: 0 means identical).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from ..microlang import Program
from ..sim import MatchRecord, resolve_joint, restore_state
from .opponents import OpponentSet


@dataclass(frozen=True)
class BehaviorReport:
    action: float
    outcome: float
    feature: float

    def as_dict(self) -> dict:
        return asdict(self)


def decision_states(records: list[MatchRecord]) -> dict[tuple, dict]:
    """Union of decision states across matches, deduplicated by snapshot.

    Policy evaluation is a pure function of the snapshot, so the first
    recorded assignment map for a snapshot is the only possible one.
    """
    states: dict[tuple, dict] = {}
    for record in records:
        for entry in record.entries:
            if entry.snapshot not in states:
                states[entry.snapshot] = entry.actions
    return states


def action_metric(
    pi: Program, other: Program, oset: OpponentSet, per_unit: bool = False
) -> float:
    """Fraction of π's decision states where both policies issue the same
    resolved joint assignment (``per_unit`` grades each unit separately).

    ``other`` is only replayed on π's states that its own matches never
    visited: where it did, its recorded assignment is the replay, because
    evaluation is a pure function of the snapshot.

    A policy visiting no decision states has nothing to disagree on: 1.0.
    """
    states = decision_states(oset.matches(pi))
    if not states:
        return 1.0
    recorded = decision_states(oset.matches(other))
    total = 0.0
    for snapshot, assigned in states.items():
        replayed = recorded.get(snapshot)
        if replayed is None:
            replayed = resolve_joint(other, restore_state(snapshot), 0)
        if per_unit:
            uids = set(assigned) | set(replayed)
            if not uids:
                total += 1.0
                continue
            agree = sum(
                1 for uid in uids if assigned.get(uid) == replayed.get(uid)
            )
            total += agree / len(uids)
        else:
            total += 1.0 if assigned == replayed else 0.0
    return total / len(states)


def outcome_metric(pi: Program, other: Program, oset: OpponentSet) -> float:
    """Fraction of opponents against which both policies end the same way."""
    recs_pi, recs_other = oset.matches(pi), oset.matches(other)
    return sum(
        1 for a, b in zip(recs_pi, recs_other) if a.outcome == b.outcome
    ) / len(recs_pi)


def feature_distance(left: tuple, right: tuple) -> float:
    """Mean componentwise relative difference between two count vectors."""
    return sum(
        abs(a - b) / max(a, b, 1) for a, b in zip(left, right)
    ) / len(left)


def feature_metric(pi: Program, other: Program, oset: OpponentSet) -> float:
    """Mean per-opponent feature distance; 0 for identical behavior."""
    recs_pi, recs_other = oset.matches(pi), oset.matches(other)
    return sum(
        feature_distance(a.features[0], b.features[0])
        for a, b in zip(recs_pi, recs_other)
    ) / len(recs_pi)


def mean_feature_vector(pi: Program, oset: OpponentSet) -> tuple[float, ...]:
    """Componentwise mean of a policy's per-match feature vectors."""
    records = oset.matches(pi)
    length = len(records[0].features[0])
    sums = [0.0] * length
    for record in records:
        for i, value in enumerate(record.features[0]):
            sums[i] += value
    return tuple(s / len(records) for s in sums)


def compare(
    pi: Program, other: Program, oset: OpponentSet, per_unit: bool = False
) -> BehaviorReport:
    """The three measures of ``other`` against π.

    The report is a pure function of both canonical texts and ``per_unit``,
    so ``oset`` keeps it and a repeat pair is served without measuring.
    Two threads that miss on one pair at once store the same value.
    """
    key = oset.pair_key(pi, other, per_unit)
    report = oset.reports.get(key)
    if report is None:
        report = oset.reports[key] = BehaviorReport(
            action=action_metric(pi, other, oset, per_unit=per_unit),
            outcome=outcome_metric(pi, other, oset),
            feature=feature_metric(pi, other, oset),
        )
    return report
