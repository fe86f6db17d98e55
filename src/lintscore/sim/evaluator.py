"""One decision point: run a policy over a state, producing unit assignments.

Semantics:

* ``for(Unit u)`` iterates the executing player's own units in ascending id
  order; the statement list inside runs once per unit.
* Assignments are write-once: the first command a unit becomes eligible for
  wins, so earlier statements have strictly higher priority.
* A command is skipped (without consuming the unit) when its kind cannot
  perform it, its count limit is reached, resources are insufficient, or no
  target resolves; evaluation then falls through to later statements.
* Top-level statements execute once. A bare command or guard outside any loop
  has no unit bound to ``u``: the command is inert and the guard is false.
* Guards are pure predicates; the two activity counters (units attacking,
  workers harvesting) read the assignment map built so far at this decision
  point. Every other guard that does not read ``u`` depends on the state
  alone, so it is computed once per decision point.

Resolved actions are concrete (exact target ids and cells), and units left
unassigned act as if assigned ``idle()``: hold position, auto-attacking the
closest enemy in range.
"""
from __future__ import annotations

import hashlib
import weakref
from typing import Callable

from ..microlang.ast import (
    BoolCall,
    Command,
    Empty,
    ForLoop,
    If,
    Program,
    Statement,
    walk,
)
from .actions import (
    ATTACK,
    DEPOSIT,
    HARVEST,
    MOVE,
    SPAWN,
    Action,
)
from .state import Cell, GameState, Unit
from .units import RESOURCE, BASE

# direction -> grid delta; y grows downward
_DELTAS = {"Up": (0, -1), "Right": (1, 0), "Down": (0, 1), "Left": (-1, 0)}
_CLOCKWISE = ("Up", "Right", "Down", "Left")

# movement is 8-directional so strict Chebyshev descent cannot stall on a
# diagonal approach; order fixes tie-breaks, clockwise from Up
_MOVE_DELTAS = (
    (0, -1),
    (1, -1),
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
)

_ATTACK_VERBS = ("attack", "attack_if_in_range")


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _distance_pair(a: Cell, b: Cell) -> tuple[int, int]:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return (max(dx, dy), dx + dy)


def _stable_index(key: tuple, size: int) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % size


# selection criterion -> (stat table, chooser's cell) -> sort key; ties go to
# the lowest id. Built once rather than six closures per selection.
_SELECT_KEYS = {
    "Strongest": lambda stats, pos: lambda v: (-stats[v.kind].attack_damage, v.uid),
    "Weakest": lambda stats, pos: lambda v: (stats[v.kind].attack_damage, v.uid),
    "Closest": lambda stats, pos: lambda v: (chebyshev(pos, v.pos), v.uid),
    "Farthest": lambda stats, pos: lambda v: (-chebyshev(pos, v.pos), v.uid),
    "LessHealthy": lambda stats, pos: lambda v: (v.hp, v.uid),
    "MostHealthy": lambda stats, pos: lambda v: (-v.hp, v.uid),
}


class _Context:
    """Per-evaluation scratch state and caches."""

    def __init__(self, state: GameState, player: int):
        self.state = state
        self.stats = state.stats
        self.player = player
        opponent = 1 - player
        units = state.units
        own: list[Unit] = []
        enemies: list[Unit] = []
        nodes: list[Unit] = []
        own_counts: dict[str, int] = {}
        enemy_counts: dict[str, int] = {}
        for uid in sorted(units):
            u = units[uid]
            if u.owner == player:
                own.append(u)
                own_counts[u.kind] = own_counts.get(u.kind, 0) + 1
            elif u.owner == opponent:
                enemies.append(u)
                enemy_counts[u.kind] = enemy_counts.get(u.kind, 0) + 1
            if u.kind == RESOURCE and u.resources > 0:
                nodes.append(u)
        self.own = own
        self.enemies = enemies
        self.nodes = nodes
        self.n_own = len(own)
        self.own_counts = own_counts
        self.enemy_counts = enemy_counts
        self.assigned: dict[int, Action] = {}
        self.attacking = 0
        self.harvesting = 0
        self.committed_cost = 0
        self.pending_spawns: dict[str, int] = {}
        self.reserved: set[Cell] = set()
        # state-only guard values computed so far at this decision point
        self.guards: dict[BoolCall, bool] = {}

    # -- assignment ---------------------------------------------------------

    def assign(self, unit: Unit, action: Action) -> None:
        if unit.uid in self.assigned:
            raise AssertionError(f"unit {unit.uid} assigned twice")
        self.assigned[unit.uid] = action
        if action.source in _ATTACK_VERBS:
            self.attacking += 1
        elif action.source == "harvest":
            self.harvesting += 1

    # -- target helpers -----------------------------------------------------

    def free_cell(self, cell: Cell) -> bool:
        return self.state.is_free(cell) and cell not in self.reserved

    def spawn_cell(self, unit: Unit, direction: str) -> Cell | None:
        if direction == "EnemyDir":
            best: tuple[int, int] | None = None
            best_cell: Cell | None = None
            for rank, name in enumerate(_CLOCKWISE):
                dx, dy = _DELTAS[name]
                cell = (unit.x + dx, unit.y + dy)
                if not self.free_cell(cell):
                    continue
                dist = self.nearest_enemy_distance(cell)
                key = (dist, rank)
                if best is None or key < best:
                    best, best_cell = key, cell
            return best_cell
        start = _CLOCKWISE.index(direction)
        for i in range(4):
            name = _CLOCKWISE[(start + i) % 4]
            dx, dy = _DELTAS[name]
            cell = (unit.x + dx, unit.y + dy)
            if self.free_cell(cell):
                return cell
        return None

    def nearest_enemy_distance(self, cell: Cell) -> int:
        if not self.enemies:
            return 0
        return min(chebyshev(cell, e.pos) for e in self.enemies)

    def step_toward(self, unit: Unit, goal: Cell) -> Cell | None:
        """Free adjacent cell improving (Chebyshev, Manhattan) distance to
        goal, so a blocked diagonal approach slides around the obstacle."""
        current = _distance_pair(unit.pos, goal)
        best: Cell | None = None
        best_key: tuple[int, int, int] | None = None
        for rank, (dx, dy) in enumerate(_MOVE_DELTAS):
            cell = (unit.x + dx, unit.y + dy)
            if not self.free_cell(cell):
                continue
            pair = _distance_pair(cell, goal)
            if pair >= current:
                continue
            key = (*pair, rank)
            if best_key is None or key < best_key:
                best_key, best = key, cell
        return best

    def step_away(self, unit: Unit, anchor: Cell) -> Cell | None:
        """Free adjacent cell worsening (Chebyshev, Manhattan) distance from
        the anchor."""
        current = _distance_pair(unit.pos, anchor)
        best: Cell | None = None
        best_key: tuple[int, int, int] | None = None
        for rank, (dx, dy) in enumerate(_MOVE_DELTAS):
            cell = (unit.x + dx, unit.y + dy)
            if not self.free_cell(cell):
                continue
            pair = _distance_pair(cell, anchor)
            if pair <= current:
                continue
            key = (-pair[0], -pair[1], rank)
            if best_key is None or key < best_key:
                best_key, best = key, cell
        return best

    def select(self, unit: Unit, pool: list[Unit], criterion: str) -> Unit | None:
        if not pool:
            return None
        if criterion == "Random":
            ids = tuple(u.uid for u in pool)
            idx = _stable_index((self.state.seed, unit.uid, ids), len(pool))
            return pool[idx]
        return min(pool, key=_SELECT_KEYS[criterion](self.stats, unit.pos))

    def closest_enemy_in_range(self, unit: Unit) -> Unit | None:
        # enemies ascend by id, so the first at the least distance wins ties
        best: Unit | None = None
        best_dist = self.stats[unit.kind].attack_range + 1
        x, y = unit.x, unit.y
        for enemy in self.enemies:
            dist = max(abs(x - enemy.x), abs(y - enemy.y))
            if dist < best_dist:
                best, best_dist = enemy, dist
        return best

    def idle_resolution(self, unit: Unit) -> Action:
        if self.stats[unit.kind].can_attack:
            victim = self.closest_enemy_in_range(unit)
            if victim is not None:
                return Action(ATTACK, target=victim.uid, source="idle")
        return Action("stand", source="idle")


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _within_distance(ctx: _Context, args: tuple) -> bool:
    limit = args[0]
    return any(
        chebyshev(mine.pos, enemy.pos) <= limit
        for mine in ctx.own
        for enemy in ctx.enemies
    )


def _kills_in_one(ctx: _Context, args: tuple) -> bool:
    stats = ctx.stats
    return any(
        stats[mine.kind].can_attack
        and any(stats[mine.kind].attack_damage >= e.hp for e in ctx.enemies)
        for mine in ctx.own
    )


def _opponent_kills_in_one(ctx: _Context, args: tuple) -> bool:
    stats = ctx.stats
    return any(
        stats[enemy.kind].can_attack
        and any(stats[enemy.kind].attack_damage >= m.hp for m in ctx.own)
        for enemy in ctx.enemies
    )


def _in_opponent_range(ctx: _Context, args: tuple) -> bool:
    stats = ctx.stats
    return any(
        chebyshev(mine.pos, enemy.pos) <= stats[enemy.kind].attack_range
        for mine in ctx.own
        for enemy in ctx.enemies
        if stats[enemy.kind].can_attack
    )


def _opponent_in_player_range(ctx: _Context, args: tuple) -> bool:
    stats = ctx.stats
    return any(
        chebyshev(mine.pos, enemy.pos) <= stats[mine.kind].attack_range
        for mine in ctx.own
        if stats[mine.kind].can_attack
        for enemy in ctx.enemies
    )


# guards that read neither ``u`` nor the assignments made so far
_STATE_GUARDS: dict[str, Callable[[_Context, tuple], bool]] = {
    "hasNumberOfUnits": lambda ctx, args: ctx.own_counts.get(args[0], 0) >= args[1],
    "opponentHasNumberOfUnits": (
        lambda ctx, args: ctx.enemy_counts.get(args[0], 0) >= args[1]
    ),
    "hasLessNumberOfUnits": (
        lambda ctx, args: ctx.own_counts.get(args[0], 0) < args[1]
    ),
    "hasUnitWithinDistanceFromOpponent": _within_distance,
    "hasUnitThatKillsInOneAttack": _kills_in_one,
    "opponentHasUnitThatKillsUnitInOneAttack": _opponent_kills_in_one,
    "hasUnitInOpponentRange": _in_opponent_range,
    "opponentHasUnitInPlayerRange": _opponent_in_player_range,
}
# state-only guards that are still false outside a loop
_UNIT_GATED = frozenset(
    {
        "hasUnitThatKillsInOneAttack",
        "opponentHasUnitThatKillsUnitInOneAttack",
        "hasUnitInOpponentRange",
        "opponentHasUnitInPlayerRange",
    }
)


# ---------------------------------------------------------------------------
# commands: each runs for a bound unit that has no assignment yet
# ---------------------------------------------------------------------------


def _spawn(cmd: Command, unit: Unit, ctx: _Context) -> None:
    kind, direction, limit = cmd.args
    stats = ctx.stats
    mine = stats[unit.kind]
    allowed = mine.trains if cmd.name == "train" else mine.builds
    if kind not in allowed:
        return
    have = ctx.own_counts.get(kind, 0) + ctx.pending_spawns.get(kind, 0)
    if have >= limit:
        return
    cost = stats[kind].cost
    if ctx.state.player_resources[ctx.player] - ctx.committed_cost < cost:
        return
    cell = ctx.spawn_cell(unit, direction)
    if cell is None:
        return
    ctx.committed_cost += cost
    ctx.pending_spawns[kind] = ctx.pending_spawns.get(kind, 0) + 1
    ctx.reserved.add(cell)
    ctx.assign(unit, Action(SPAWN, cell=cell, unit_type=kind, source=cmd.name))


def _approach(unit: Unit, goal: Cell, source: str, ctx: _Context) -> None:
    """Assign a step toward ``goal``, or standing still when none helps."""
    step = ctx.step_toward(unit, goal)
    action = (
        Action(MOVE, cell=step, source=source)
        if step is not None
        else Action("stand", source=source)
    )
    ctx.assign(unit, action)


def _attack(cmd: Command, unit: Unit, ctx: _Context) -> None:
    mine = ctx.stats[unit.kind]
    if not mine.can_attack or not ctx.enemies:
        return
    victim = ctx.select(unit, ctx.enemies, cmd.args[0])
    if victim is None:
        return
    if chebyshev(unit.pos, victim.pos) <= mine.attack_range:
        ctx.assign(unit, Action(ATTACK, target=victim.uid, source="attack"))
    elif mine.can_move:
        _approach(unit, victim.pos, "attack", ctx)
    else:
        ctx.assign(unit, Action("stand", source="attack"))


def _attack_if_in_range(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if not ctx.stats[unit.kind].can_attack:
        return
    victim = ctx.closest_enemy_in_range(unit)
    if victim is None:
        return
    ctx.assign(unit, Action(ATTACK, target=victim.uid, source="attack_if_in_range"))


def _harvest(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if not ctx.stats[unit.kind].can_harvest:
        return
    if ctx.harvesting >= cmd.args[0]:
        return
    if unit.carried > 0:
        bases = [u for u in ctx.own if u.kind == BASE]
        depot = ctx.select(unit, bases, "Closest")
        if depot is None:
            return
        if chebyshev(unit.pos, depot.pos) <= 1:
            ctx.assign(unit, Action(DEPOSIT, target=depot.uid, source="harvest"))
        else:
            _approach(unit, depot.pos, "harvest", ctx)
        return
    node = ctx.select(unit, ctx.nodes, "Closest")
    if node is None:
        return
    if chebyshev(unit.pos, node.pos) <= 1:
        ctx.assign(unit, Action(HARVEST, target=node.uid, source="harvest"))
    else:
        _approach(unit, node.pos, "harvest", ctx)


def _move_to_unit(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if not ctx.stats[unit.kind].can_move:
        return
    side, criterion = cmd.args
    pool = (
        [u for u in ctx.own if u.uid != unit.uid]
        if side == "Ally"
        else ctx.enemies
    )
    goal = ctx.select(unit, pool, criterion)
    if goal is None:
        return
    _approach(unit, goal.pos, "moveToUnit", ctx)


def _move_away(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if not ctx.stats[unit.kind].can_move:
        return
    bases = [u for u in ctx.own if u.kind == BASE]
    anchor = ctx.select(unit, bases, "Closest")
    if anchor is None:
        return
    step = ctx.step_away(unit, anchor.pos)
    action = (
        Action(MOVE, cell=step, source="moveAway")
        if step is not None
        else Action("stand", source="moveAway")
    )
    ctx.assign(unit, action)


def _idle(cmd: Command, unit: Unit, ctx: _Context) -> None:
    ctx.assign(unit, ctx.idle_resolution(unit))


_COMMANDS: dict[str, Callable[[Command, Unit, _Context], None]] = {
    "train": _spawn,
    "build": _spawn,
    "attack": _attack,
    "attack_if_in_range": _attack_if_in_range,
    "harvest": _harvest,
    "moveToUnit": _move_to_unit,
    "moveAway": _move_away,
    "idle": _idle,
}


# ---------------------------------------------------------------------------
# compilation: each program is lowered once to a tree of closures
# ---------------------------------------------------------------------------

# A compiled statement or statement list, run with ``u`` bound to the unit
# (``None`` outside every loop).
_Runner = Callable[[Unit | None, _Context], None]
_Test = Callable[[Unit | None, _Context], bool]


def _never(unit: Unit | None, ctx: _Context) -> bool:
    return False


def _nothing(unit: Unit | None, ctx: _Context) -> None:
    return None


def _compile_guard(call: BoolCall, bound: bool) -> _Test:
    """The guard as a test; ``bound`` says whether it sits inside a loop."""
    name, args = call.name, call.args
    compute = _STATE_GUARDS.get(name)
    if compute is not None:
        if not bound and name in _UNIT_GATED:
            return _never

        def state_only(unit: Unit | None, ctx: _Context) -> bool:
            guards = ctx.guards
            value = guards.get(call)
            if value is None:
                value = guards[call] = compute(ctx, args)
            return value

        return state_only
    if name == "haveQtdUnitsAttacking":
        return lambda unit, ctx: ctx.attacking >= args[0]
    if name == "hasNumberOfWorkersHarvesting":
        return lambda unit, ctx: ctx.harvesting >= args[0]
    if not bound:
        return _never
    if name == "is_Type":
        return lambda unit, ctx: unit.kind == args[0]
    if name == "isBuilder":
        return lambda unit, ctx: bool(ctx.stats[unit.kind].builds)
    if name == "canAttack":
        return lambda unit, ctx: ctx.stats[unit.kind].can_attack
    if name == "canHarvest":
        return lambda unit, ctx: ctx.stats[unit.kind].can_harvest and (
            unit.carried > 0 or bool(ctx.nodes)
        )
    raise ValueError(f"unknown guard {name!r}")


def _compile_statement(stmt: Statement, bound: bool) -> _Runner | None:
    """The statement as a runner, or ``None`` when it can never act."""
    cls = stmt.__class__
    if cls is Command:
        if not bound:
            return None
        command = _COMMANDS.get(stmt.name)
        if command is None:
            raise ValueError(f"unknown command {stmt.name!r}")

        def run_command(unit: Unit, ctx: _Context) -> None:
            if unit.uid not in ctx.assigned:
                command(stmt, unit, ctx)

        return run_command
    if cls is ForLoop:
        body = _compile_block(stmt.body, True)
        if any(inner.__class__ is ForLoop for inner in walk(stmt)):
            # an inner loop rebinds ``u``, so assigned units still matter
            def run_outer_loop(unit: Unit | None, ctx: _Context) -> None:
                assigned, n_own = ctx.assigned, ctx.n_own
                for looped in ctx.own:
                    if len(assigned) == n_own:
                        return
                    body(looped, ctx)

            return run_outer_loop

        # without one, the body cannot act for an assigned unit: its
        # commands skip the unit and its guards have no effect
        def run_loop(unit: Unit | None, ctx: _Context) -> None:
            assigned, n_own = ctx.assigned, ctx.n_own
            for looped in ctx.own:
                if len(assigned) == n_own:
                    return
                if looped.uid not in assigned:
                    body(looped, ctx)

        return run_loop
    if cls is If:
        test = _compile_guard(stmt.cond, bound)
        then = _compile_block(stmt.then, bound)
        orelse = (
            _nothing if stmt.orelse is None else _compile_block(stmt.orelse, bound)
        )

        def run_if(unit: Unit | None, ctx: _Context) -> None:
            if test(unit, ctx):
                then(unit, ctx)
            else:
                orelse(unit, ctx)

        return run_if
    if cls is Empty:
        return None
    raise TypeError(f"not a statement: {stmt!r}")


def _compile_block(stmts: tuple[Statement, ...], bound: bool) -> _Runner:
    """The statement list as one runner; it stops as soon as every own unit
    holds an assignment, since nothing can change after that."""
    steps = [
        step
        for step in (_compile_statement(stmt, bound) for stmt in stmts)
        if step is not None
    ]
    if not steps:
        return _nothing
    if len(steps) == 1:
        return steps[0]

    def run_block(unit: Unit | None, ctx: _Context) -> None:
        assigned, n_own = ctx.assigned, ctx.n_own
        for step in steps:
            if len(assigned) == n_own:
                return
            step(unit, ctx)

    return run_block


# id(program) -> its compiled body. An entry is dropped when its program is
# freed, before the id can be reused; the closures read nothing but the
# program, so sharing them across callers and threads changes no result.
_COMPILED: dict[int, _Runner] = {}


def _compiled(program: Program) -> _Runner:
    key = id(program)
    runner = _COMPILED.get(key)
    if runner is None:
        runner = _COMPILED[key] = _compile_block(program.body, False)
        weakref.finalize(program, _COMPILED.pop, key, None)
    return runner


def _run(program: Program, state: GameState, player: int) -> _Context:
    ctx = _Context(state, player)
    _compiled(program)(None, ctx)
    return ctx


def evaluate_policy(
    program: Program, state: GameState, player: int
) -> dict[int, Action]:
    """Assignments for one decision point; units absent from the map are idle.

    The returned map contains an entry for every unit the policy assigned;
    callers treat missing units as ``idle()``.
    """
    return _run(program, state, player).assigned


def resolve_joint(
    program: Program, state: GameState, player: int
) -> dict[int, Action]:
    """Like :func:`evaluate_policy` but with idle resolution filled in for
    unassigned units, so two joint maps compare positionally."""
    ctx = _run(program, state, player)
    joint = ctx.assigned
    for unit in ctx.own:
        if unit.uid not in joint:
            joint[unit.uid] = ctx.idle_resolution(unit)
    return joint
