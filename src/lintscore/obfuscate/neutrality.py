"""Exact behavioral-equality check between two policies."""
from __future__ import annotations

from dataclasses import dataclass

from ..microlang import Program
from ..metrics.opponents import OpponentSet


@dataclass(frozen=True)
class Divergence:
    opponent: str
    kind: str  # "outcome", "features", "decisions", "actions", "state"
    decision_index: int | None = None
    detail: str = ""


@dataclass
class NeutralityReport:
    equal: bool
    divergences: list[Divergence]


def verify_neutral(
    pi: Program, other: Program, oset: OpponentSet
) -> NeutralityReport:
    """Replay both policies against every opponent and demand identical
    outcomes, feature vectors, and per-decision states and assignments.

    The first divergence per opponent is recorded with enough context to
    locate it (opponent, decision index, what differed).  Programs with one
    behaviour key share their records in ``oset`` (see
    :class:`~lintscore.metrics.OpponentSet`), so they are equal here
    without a second simulation.
    """
    divergences: list[Divergence] = []
    recs_pi = oset.matches(pi)
    recs_other = oset.matches(other)
    for opponent, rec_pi, rec_other in zip(
        oset.opponents, recs_pi, recs_other
    ):
        divergence = _first_divergence(opponent.ident, rec_pi, rec_other)
        if divergence is not None:
            divergences.append(divergence)
    return NeutralityReport(not divergences, divergences)


def _first_divergence(ident: str, rec_pi, rec_other) -> Divergence | None:
    for index, (entry_pi, entry_other) in enumerate(
        zip(rec_pi.entries, rec_other.entries)
    ):
        if entry_pi.snapshot != entry_other.snapshot:
            return Divergence(
                ident, "state", index, f"{entry_pi.digest} vs {entry_other.digest}"
            )
        if entry_pi.actions != entry_other.actions:
            changed = sorted(
                uid
                for uid in set(entry_pi.actions) | set(entry_other.actions)
                if entry_pi.actions.get(uid) != entry_other.actions.get(uid)
            )
            return Divergence(
                ident, "actions", index, f"units {changed} at {entry_pi.digest}"
            )
    if len(rec_pi.entries) != len(rec_other.entries):
        return Divergence(
            ident,
            "decisions",
            min(len(rec_pi.entries), len(rec_other.entries)),
            f"{len(rec_pi.entries)} vs {len(rec_other.entries)} entries",
        )
    if rec_pi.outcome != rec_other.outcome:
        return Divergence(
            ident, "outcome", detail=f"{rec_pi.outcome} vs {rec_other.outcome}"
        )
    if rec_pi.features != rec_other.features:
        return Divergence(
            ident, "features", detail=f"{rec_pi.features} vs {rec_other.features}"
        )
    return None
