"""Tick resolution and full-match execution."""
from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..microlang.ast import Program
from .actions import ATTACK, DEPOSIT, HARVEST, MOVE, SPAWN, Action
from .evaluator import distances, resolve_joint
from .state import GameState, restore_state
from .units import BARRACKS, BASE, DEFAULT_STATS, HEAVY, LIGHT, RANGED, WORKER

FEATURE_KINDS = (WORKER, LIGHT, HEAVY, RANGED, BASE, BARRACKS)


@dataclass
class MatchCounters:
    spawned: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))
    collected: list[int] = field(default_factory=lambda: [0, 0])
    dropped: int = 0

    def feature_vector(self, player: int) -> tuple[int, ...]:
        kinds = self.spawned[player]
        return tuple(kinds.get(k, 0) for k in FEATURE_KINDS) + (
            self.collected[player],
        )

    def frozen(self) -> tuple[tuple, tuple[int, int], int]:
        """(spawned, collected, dropped) as a :class:`DecisionEntry` keeps
        them."""
        spawned = tuple(tuple(sorted(kinds.items())) for kinds in self.spawned)
        return spawned, (self.collected[0], self.collected[1]), self.dropped


def step(state: GameState, actions: dict[int, Action], counters: MatchCounters) -> None:
    """Advance one tick: attacks, harvest/deposit, moves, then spawns.

    Attacks land simultaneously against start-of-tick hit points; other
    phases resolve in ascending unit-id order. Actions invalidated by earlier
    resolution (occupied cell, depleted node, spent resources) are dropped.
    Deaths and node depletion apply at end of tick, so a unit killed this
    tick still completes its own action.
    """
    stats = DEFAULT_STATS
    units = state.units
    chebyshev = distances(state.width, state.height).chebyshev
    ordered = sorted(actions.items())

    damage: dict[int, int] = {}
    for uid, action in ordered:
        if action.op != ATTACK or uid not in units:
            continue
        attacker = units[uid]
        victim = units.get(action.target)
        if (
            victim is None
            or victim.owner is None
            or victim.owner == attacker.owner
            or chebyshev[attacker.x][attacker.y][victim.x][victim.y]
            > stats[attacker.kind].attack_range
        ):
            counters.dropped += 1
            continue
        damage[victim.uid] = damage.get(victim.uid, 0) + stats[
            attacker.kind
        ].attack_damage
    for uid, dealt in damage.items():
        units[uid].hp -= dealt

    for uid, action in ordered:
        if uid not in units:
            continue
        unit = units[uid]
        if action.op == HARVEST:
            node = units.get(action.target)
            if (
                node is None
                or node.resources <= 0
                or unit.carried > 0
                or chebyshev[unit.x][unit.y][node.x][node.y] > 1
            ):
                counters.dropped += 1
                continue
            node.resources -= 1
            unit.carried = 1
            counters.collected[unit.owner] += 1
        elif action.op == DEPOSIT:
            depot = units.get(action.target)
            if (
                depot is None
                or depot.owner != unit.owner
                or unit.carried <= 0
                or chebyshev[unit.x][unit.y][depot.x][depot.y] > 1
            ):
                counters.dropped += 1
                continue
            state.player_resources[unit.owner] += unit.carried
            unit.carried = 0

    for uid, action in ordered:
        if action.op != MOVE or uid not in units:
            continue
        if not stats[units[uid].kind].can_move:
            continue
        if state.is_free(action.cell):
            state.move_unit(uid, action.cell)
        else:
            counters.dropped += 1

    for uid, action in ordered:
        if action.op != SPAWN or uid not in units:
            continue
        owner = units[uid].owner
        cost = stats[action.unit_type].cost
        if not state.is_free(action.cell) or state.player_resources[owner] < cost:
            counters.dropped += 1
            continue
        state.player_resources[owner] -= cost
        state.add_unit(action.unit_type, owner, *action.cell)
        spawned = counters.spawned[owner]
        spawned[action.unit_type] = spawned.get(action.unit_type, 0) + 1

    for uid in [u.uid for u in units.values() if u.hp <= 0]:
        state.remove_unit(uid)
    for uid in [
        u.uid for u in units.values() if u.kind == "Resource" and u.resources <= 0
    ]:
        state.remove_unit(uid)


# ---------------------------------------------------------------------------
# matches
# ---------------------------------------------------------------------------


def snapshot_digest(snapshot: tuple) -> str:
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()[:16]


@dataclass(slots=True)
class DecisionEntry:
    snapshot: tuple
    actions: dict[int, Action]  # resolved joint assignment for player 0
    # The rest of the full state as of before this tick: with the snapshot,
    # enough to resume the match here.
    next_uid: int
    spawned: tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]
    collected: tuple[int, int]
    dropped: int

    @property
    def digest(self) -> str:
        return snapshot_digest(self.snapshot)

    def resume(self) -> tuple[GameState, MatchCounters]:
        """The full state and counters as of before this entry's tick."""
        state = restore_state(self.snapshot)
        state.next_uid = self.next_uid
        counters = MatchCounters(
            (dict(self.spawned[0]), dict(self.spawned[1])),
            list(self.collected),
            self.dropped,
        )
        return state, counters


@dataclass
class MatchRecord:
    """Everything observed from one match, from player 0's perspective.

    Both players decide on every tick, so entry i is tick i."""

    outcome: int  # +1 win, 0 draw, -1 loss for player 0
    fixed_point: bool
    entries: list[DecisionEntry]
    features: tuple[tuple[int, ...], tuple[int, ...]]  # per player
    dropped: int

    @property
    def ticks(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "ticks": self.ticks,
            "fixed_point": self.fixed_point,
            "features": [list(f) for f in self.features],
            "dropped_actions": self.dropped,
            "decisions": [
                {
                    "state": entry.digest,
                    "actions": {
                        str(uid): entry.actions[uid].to_json()
                        for uid in sorted(entry.actions)
                    },
                }
                for entry in self.entries
            ],
        }


def play_match(
    program0: Program,
    program1: Program,
    initial: GameState,
    max_ticks: int = 2000,
    *,
    earlier: Sequence[MatchRecord] = (),
    views: dict[tuple, GameState] | None = None,
) -> MatchRecord:
    """Run both policies to elimination, a repeated state, or the tick limit.

    Both players decide on every tick, so a repeated full state implies the
    remainder of the match repeats forever: it ends early as a draw with
    ``fixed_point`` set. Entry i records player 0's resolved assignment at
    tick i.

    ``earlier`` holds records of matches against the same ``program1`` from
    the same ``initial`` state with the same limit. The simulator is
    deterministic, so while player 0's assignments equal those of one of
    them, this match repeats it: only player 0 is evaluated, on the recorded
    snapshot, and the record supplies the next decision state. A match that
    repeats a record to its end returns that record; one that departs from
    it shares the common prefix's entries and is simulated from there on.

    ``views`` maps snapshots to states restored from them: a followed
    snapshot is restored only when it is missing, and its state is added.
    Evaluation only reads these states, so callers share them between
    matches; the match resumes on a fresh state from
    :meth:`DecisionEntry.resume`, never on a view.
    """
    if views is None:
        views = {}
    entries: list[DecisionEntry] = []
    following = list(earlier)
    diverged: dict[int, Action] | None = None
    while following:
        record = following[0]
        index = len(entries)
        if index == len(record.entries):
            return record
        entry = record.entries[index]
        state = views.get(entry.snapshot)
        if state is None:
            state = views[entry.snapshot] = restore_state(entry.snapshot)
        joint0 = resolve_joint(program0, state, 0)
        following = [r for r in following if r.entries[index].actions == joint0]
        if following:
            entries.append(following[0].entries[index])
        else:
            diverged = joint0

    if diverged is None:
        state = initial.clone()
        counters = MatchCounters()
    else:
        state, counters = entry.resume()
    seen = {e.snapshot for e in entries}
    outcome = 0
    fixed_point = False
    while len(entries) < max_ticks:
        # the split both players' evaluations on this state will share
        alive0, alive1 = map(bool, state.sides().units)
        if not alive0 or not alive1:
            outcome = (1 if alive0 else 0) - (1 if alive1 else 0)
            break
        snap = state.snapshot()
        if snap in seen:
            fixed_point = True
            break
        seen.add(snap)
        if diverged is None:
            joint0 = resolve_joint(program0, state, 0)
        else:
            joint0, diverged = diverged, None
        joint1 = resolve_joint(program1, state, 1)
        entries.append(
            DecisionEntry(snap, joint0, state.next_uid, *counters.frozen())
        )
        step(state, {**joint0, **joint1}, counters)

    return MatchRecord(
        outcome=outcome,
        fixed_point=fixed_point,
        entries=entries,
        features=(counters.feature_vector(0), counters.feature_vector(1)),
        dropped=counters.dropped,
    )
