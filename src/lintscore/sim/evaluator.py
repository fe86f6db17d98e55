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
closest enemy in range. A result that does not depend on the situation
(standing still, per command) is one shared :class:`Action`.

Evaluation reads the units through the state's :class:`~.state.Sides` split
(each side's units and kind counts, the live resource nodes), built once
per set of units and shared by both players. Its lists ascend by id because
``GameState.units`` does, so nothing here sorts. Evaluation never changes
the state or its split, so every evaluation on one recorded snapshot may
share one read-only :class:`~.state.StateView` of it (see
:meth:`~.engine.SharedParts.view`).

Distances and the cells one move away are read from the tables of the map's
size (:func:`distances`), built the first time a run meets that size.

Each program is lowered once to one generated Python function, cached for
the program's lifetime. What is lowered is the program's pruned form, the
body of its behaviour form (:func:`behaviour_form`) with the trailing
default statements kept: under the unit table, ``units.DEFAULT_STATS``, a
statement that no unit kind admitted by its guard chain can act on is
dropped first. Every remaining command runs only for the unit kinds that
can carry it out (``train X``: kinds that train X; ``build X``: kinds that
build X; ``attack`` and ``attack_if_in_range``: kinds that can attack;
``harvest``: kinds that can harvest; ``moveToUnit`` and ``moveAway``: kinds
that can move; ``idle``: every kind), since for any other kind it would be
skipped anyway.
"""
from __future__ import annotations

import functools
import hashlib
import sys
from types import CodeType
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
from ..microlang.printer import print_program
from .actions import (
    ATTACK,
    DEPOSIT,
    HARVEST,
    MOVE,
    SPAWN,
    STAND,
    Action,
)
from .state import Cell, GameState, StateView, Unit
from .units import BASE, DEFAULT_STATS, UnitStats

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


class Distances:
    """Lookup tables for one map size, indexed by cells' coordinates:
    ``chebyshev[x][y][x2][y2]`` and ``manhattan[x][y][x2][y2]`` are the
    distances between (x, y) and (x2, y2), and ``neighbours[x][y]`` lists the
    in-bounds cells one move from (x, y) in ``_MOVE_DELTAS`` order.  Each
    distance table holds (width * height) ** 2 entries."""

    __slots__ = ("chebyshev", "manhattan", "neighbours")

    def __init__(self, width: int, height: int):
        xs, ys = range(width), range(height)
        self.chebyshev = tuple(
            tuple(
                tuple(tuple(max(abs(x - a), abs(y - b)) for b in ys) for a in xs)
                for y in ys
            )
            for x in xs
        )
        self.manhattan = tuple(
            tuple(
                tuple(tuple(abs(x - a) + abs(y - b) for b in ys) for a in xs)
                for y in ys
            )
            for x in xs
        )
        self.neighbours = tuple(
            tuple(
                tuple(
                    (x + dx, y + dy)
                    for dx, dy in _MOVE_DELTAS
                    if 0 <= x + dx < width and 0 <= y + dy < height
                )
                for y in ys
            )
            for x in xs
        )


@functools.cache
def distances(width: int, height: int) -> Distances:
    """The tables of one map size, built on first use: a run pays only for
    the sizes it plays on."""
    return Distances(width, height)


def _stable_index(key: tuple, size: int) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % size


def _closest(
    unit: Unit, pool: list[Unit], limit: int, chebyshev: tuple
) -> Unit | None:
    """The unit of ``pool`` at the least Chebyshev distance from ``unit``
    below ``limit``, by the ``chebyshev`` table of :class:`Distances`;
    pools ascend by id, so the lowest id wins ties."""
    best: Unit | None = None
    row = chebyshev[unit.x][unit.y]
    for other in pool:
        dist = row[other.x][other.y]
        if dist < limit:
            best, limit = other, dist
    return best


# selection criterion -> Chebyshev distances from the chooser's cell -> sort
# key; ties go to the lowest id. Built once rather than five closures per
# selection; ``Closest`` is :func:`_closest`.
_SELECT_KEYS = {
    "Strongest": lambda row: lambda v: (-DEFAULT_STATS[v.kind].attack_damage, v.uid),
    "Weakest": lambda row: lambda v: (DEFAULT_STATS[v.kind].attack_damage, v.uid),
    "Farthest": lambda row: lambda v: (-row[v.x][v.y], v.uid),
    "LessHealthy": lambda row: lambda v: (v.hp, v.uid),
    "MostHealthy": lambda row: lambda v: (-v.hp, v.uid),
}

# command verb -> its shared stand-still result
_STANDS = {
    source: Action(STAND, source=source)
    for source in ("idle", "attack", "harvest", "moveToUnit", "moveAway")
}


class _Context:
    """Per-evaluation scratch state and caches."""

    def __init__(self, state: GameState | StateView, player: int):
        self.state = state
        self.width, self.height = state.width, state.height
        tables = distances(state.width, state.height)
        self.chebyshev = tables.chebyshev
        self.manhattan = tables.manhattan
        self.neighbours = tables.neighbours
        self.occupancy = state.occupancy
        sides = state.sides()
        self.own = sides.units[player]
        self.enemies = sides.units[1 - player]
        self.nodes = sides.nodes
        self.n_own = len(self.own)
        self.own_counts = sides.counts[player]
        self.enemy_counts = sides.counts[1 - player]
        self.assigned: dict[int, Action] = {}
        self.attacking = 0
        self.harvesting = 0
        # resources left after the spawns assigned so far
        self.funds = state.player_resources[player]
        self.pending_spawns: dict[str, int] = {}
        self.reserved: set[Cell] = set()
        # state-only guard values computed so far at this decision point, by
        # the number the generated function gives each distinct call
        self.guards: dict[int, bool] = {}

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
        x, y = cell
        return (
            0 <= x < self.width
            and 0 <= y < self.height
            and cell not in self.occupancy
            and cell not in self.reserved
        )

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
        """The Chebyshev distance from ``cell``, which is on the map, to the
        nearest enemy; 0 without enemies."""
        if not self.enemies:
            return 0
        x, y = cell
        row = self.chebyshev[x][y]
        return min(row[e.x][e.y] for e in self.enemies)

    def next_cell(self, unit: Unit, goal: Cell, sign: int) -> Cell | None:
        """Free adjacent cell improving (``sign`` 1) or worsening (``sign``
        -1) the (Chebyshev, Manhattan) distance to ``goal`` the most, the
        first in ``_MOVE_DELTAS`` order on ties. Improving by both lets a
        blocked diagonal approach slide around the obstacle."""
        gx, gy = goal
        chebyshev, manhattan = self.chebyshev[gx][gy], self.manhattan[gx][gy]
        x, y = unit.x, unit.y
        # the best pair so far, times sign; the unit's own is the bar
        far, path = sign * chebyshev[x][y], sign * manhattan[x][y]
        best: Cell | None = None
        for cell in self.neighbours[x][y]:
            cx, cy = cell
            cheb, manh = sign * chebyshev[cx][cy], sign * manhattan[cx][cy]
            if cheb < far or (cheb == far and manh < path):
                if self.free_cell(cell):
                    best, far, path = cell, cheb, manh
        return best

    def select(self, unit: Unit, pool: list[Unit], criterion: str) -> Unit | None:
        if not pool:
            return None
        if criterion == "Closest":  # no in-bounds distance reaches w + h
            return _closest(unit, pool, self.width + self.height, self.chebyshev)
        if criterion == "Random":
            ids = tuple(u.uid for u in pool)
            idx = _stable_index((self.state.seed, unit.uid, ids), len(pool))
            return pool[idx]
        row = self.chebyshev[unit.x][unit.y]
        return min(pool, key=_SELECT_KEYS[criterion](row))

    def idle_resolution(self, unit: Unit) -> Action:
        kind = DEFAULT_STATS[unit.kind]
        if kind.can_attack:
            victim = _closest(
                unit, self.enemies, kind.attack_range + 1, self.chebyshev
            )
            if victim is not None:
                return Action(ATTACK, target=victim.uid, source="idle")
        return _STANDS["idle"]


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _within_distance(ctx: _Context, args: tuple) -> bool:
    limit = args[0]
    chebyshev = ctx.chebyshev
    return any(
        chebyshev[mine.x][mine.y][enemy.x][enemy.y] <= limit
        for mine in ctx.own
        for enemy in ctx.enemies
    )


def _kills_in_one(ctx: _Context, args: tuple) -> bool:
    stats = DEFAULT_STATS
    return any(
        stats[mine.kind].can_attack
        and any(stats[mine.kind].attack_damage >= e.hp for e in ctx.enemies)
        for mine in ctx.own
    )


def _opponent_kills_in_one(ctx: _Context, args: tuple) -> bool:
    stats = DEFAULT_STATS
    return any(
        stats[enemy.kind].can_attack
        and any(stats[enemy.kind].attack_damage >= m.hp for m in ctx.own)
        for enemy in ctx.enemies
    )


def _in_opponent_range(ctx: _Context, args: tuple) -> bool:
    stats = DEFAULT_STATS
    chebyshev = ctx.chebyshev
    return any(
        chebyshev[mine.x][mine.y][enemy.x][enemy.y] <= stats[enemy.kind].attack_range
        for mine in ctx.own
        for enemy in ctx.enemies
        if stats[enemy.kind].can_attack
    )


def _opponent_in_player_range(ctx: _Context, args: tuple) -> bool:
    stats = DEFAULT_STATS
    chebyshev = ctx.chebyshev
    return any(
        chebyshev[mine.x][mine.y][enemy.x][enemy.y] <= stats[mine.kind].attack_range
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
# commands: each runs for a bound unit that has no assignment yet and whose
# kind can carry the command out (see ``_COMMANDS``)
# ---------------------------------------------------------------------------


def _spawn(cmd: Command, unit: Unit, ctx: _Context) -> None:
    # the generated code has checked the count limit and the funds
    kind, direction, _ = cmd.args
    cell = ctx.spawn_cell(unit, direction)
    if cell is None:
        return
    ctx.funds -= DEFAULT_STATS[kind].cost
    ctx.pending_spawns[kind] = ctx.pending_spawns.get(kind, 0) + 1
    ctx.reserved.add(cell)
    ctx.assign(unit, Action(SPAWN, cell=cell, unit_type=kind, source=cmd.name))


def _approach(unit: Unit, goal: Cell, source: str, ctx: _Context, sign: int = 1) -> None:
    """Assign a step toward ``goal`` (away from it for ``sign`` -1), or
    standing still when none helps."""
    step = ctx.next_cell(unit, goal, sign)
    action = (
        Action(MOVE, cell=step, source=source)
        if step is not None
        else _STANDS[source]
    )
    ctx.assign(unit, action)


def _attack(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if not ctx.enemies:
        return
    victim = ctx.select(unit, ctx.enemies, cmd.args[0])
    if victim is None:
        return
    if (
        ctx.chebyshev[unit.x][unit.y][victim.x][victim.y]
        <= DEFAULT_STATS[unit.kind].attack_range
    ):
        ctx.assign(unit, Action(ATTACK, target=victim.uid, source="attack"))
    else:
        # every kind that can attack can move (a test pins this)
        _approach(unit, victim.pos, "attack", ctx)


def _attack_if_in_range(cmd: Command, unit: Unit, ctx: _Context) -> None:
    victim = _closest(
        unit, ctx.enemies, DEFAULT_STATS[unit.kind].attack_range + 1, ctx.chebyshev
    )
    if victim is None:
        return
    ctx.assign(unit, Action(ATTACK, target=victim.uid, source="attack_if_in_range"))


def _harvest(cmd: Command, unit: Unit, ctx: _Context) -> None:
    if ctx.harvesting >= cmd.args[0]:
        return
    if unit.carried > 0:
        bases = [u for u in ctx.own if u.kind == BASE]
        depot = ctx.select(unit, bases, "Closest")
        if depot is None:
            return
        if ctx.chebyshev[unit.x][unit.y][depot.x][depot.y] <= 1:
            ctx.assign(unit, Action(DEPOSIT, target=depot.uid, source="harvest"))
        else:
            _approach(unit, depot.pos, "harvest", ctx)
        return
    node = ctx.select(unit, ctx.nodes, "Closest")
    if node is None:
        return
    if ctx.chebyshev[unit.x][unit.y][node.x][node.y] <= 1:
        ctx.assign(unit, Action(HARVEST, target=node.uid, source="harvest"))
    else:
        _approach(unit, node.pos, "harvest", ctx)


def _move_to_unit(cmd: Command, unit: Unit, ctx: _Context) -> None:
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
    bases = [u for u in ctx.own if u.kind == BASE]
    anchor = ctx.select(unit, bases, "Closest")
    if anchor is None:
        return
    _approach(unit, anchor.pos, "moveAway", ctx, -1)


def _idle(cmd: Command, unit: Unit, ctx: _Context) -> None:
    ctx.assign(unit, ctx.idle_resolution(unit))


_Carries = Callable[[UnitStats, tuple], bool]

# command -> (its function, whether a kind with these stats can carry out a
# command with these arguments). For any other kind the function would
# return without effect, so the generated code does not call it.
_COMMANDS: dict[str, tuple[Callable[[Command, Unit, _Context], None], _Carries]] = {
    "train": (_spawn, lambda stats, args: args[0] in stats.trains),
    "build": (_spawn, lambda stats, args: args[0] in stats.builds),
    "attack": (_attack, lambda stats, args: stats.can_attack),
    "attack_if_in_range": (_attack_if_in_range, lambda stats, args: stats.can_attack),
    "harvest": (_harvest, lambda stats, args: stats.can_harvest),
    "moveToUnit": (_move_to_unit, lambda stats, args: stats.can_move),
    "moveAway": (_move_away, lambda stats, args: stats.can_move),
    "idle": (_idle, lambda stats, args: True),
}

# guard -> whether it holds for a unit of this kind with these stats, given
# the call's arguments; ``canHarvest`` also needs the unit to carry
# resources or a node to be left, which the generated code tests
_KIND_GUARDS: dict[str, Callable[[str, UnitStats, tuple], bool]] = {
    "is_Type": lambda kind, stats, args: kind == args[0],
    "isBuilder": lambda kind, stats, args: bool(stats.builds),
    "canAttack": lambda kind, stats, args: stats.can_attack,
    "canHarvest": lambda kind, stats, args: stats.can_harvest,
}


# every kind set that _carriers and _holders have returned, by value: the
# pruning and each lowered namespace keep these objects, and there are at
# most as many as there are subsets of the unit kinds
_KIND_SETS: dict[frozenset[str], frozenset[str]] = {}


def _carriers(cmd: Command) -> frozenset[str]:
    """The unit kinds that can carry out ``cmd`` (see ``_COMMANDS``); one
    shared set per value."""
    entry = _COMMANDS.get(cmd.name)
    if entry is None:
        raise ValueError(f"unknown command {cmd.name!r}")
    carries = entry[1]
    kinds = frozenset(
        kind for kind, stats in DEFAULT_STATS.items() if carries(stats, cmd.args)
    )
    return _KIND_SETS.setdefault(kinds, kinds)


def _holders(call: BoolCall) -> frozenset[str]:
    """The unit kinds for which the kind guard ``call`` can hold (see
    ``_KIND_GUARDS``); one shared set per value."""
    holds = _KIND_GUARDS.get(call.name)
    if holds is None:
        raise ValueError(f"unknown guard {call.name!r}")
    kinds = frozenset(
        kind for kind, stats in DEFAULT_STATS.items() if holds(kind, stats, call.args)
    )
    return _KIND_SETS.setdefault(kinds, kinds)


# ---------------------------------------------------------------------------
# behaviour form: the statements that can change a resolved joint assignment
# ---------------------------------------------------------------------------

# commands whose every assignment equals the idle fill of resolve_joint
_DEFAULTS = frozenset({"idle", "attack_if_in_range"})
# guards that read the assignments made so far at this decision point
_COUNTER_GUARDS = frozenset({"haveQtdUnitsAttacking", "hasNumberOfWorkersHarvesting"})
_ALL_KINDS = frozenset(DEFAULT_STATS)
_NO_KINDS: frozenset[str] = frozenset()


def behaviour_form(program: Program) -> Program:
    """``program`` without the statements that cannot change what
    :func:`resolve_joint` returns on any state, so two programs that differ
    only in such statements have one form.

    A guard chain admits a set of unit kinds for ``u``: every kind in a
    ``for`` body, none outside a loop (where commands are inert).
    ``is_Type``, ``isBuilder`` and ``canAttack`` narrow the then branch to
    the kinds for which they can hold and the else branch to the rest;
    ``canHarvest`` also tests the state, so only its then branch narrows.
    A command that no admitted kind can carry out is dropped, and so is an
    ``if`` or loop left empty; a guard that cannot hold leaves its else
    statements, one that must hold its then statements.  Last, trailing
    top-level statements whose commands are all ``idle()`` or
    ``attack_if_in_range()`` are dropped: either assigns what the idle fill
    would, and nothing after them reads the assignment counters.  Only
    :attr:`~.actions.Action.source` can tell them apart, which
    ``Action`` equality ignores.
    """
    body = _pruned(program.body, None)
    while body and all(
        stmt.name in _DEFAULTS
        for stmt in (body[-1], *walk(body[-1]))
        if stmt.__class__ is Command
    ):
        body.pop()
    return Program(tuple(body))


def behaviour_key(program: Program) -> str:
    """The canonical text of ``program``'s behaviour form, kept in its
    memo: programs with equal keys resolve every state alike."""
    key = program.derived.get("key")
    if key is None:
        key = program.derived["key"] = print_program(behaviour_form(program))
    return key


def _pruned(stmts: tuple[Statement, ...],
            admitted: frozenset[str] | None) -> list[Statement]:
    """``stmts`` where the enclosing guard chain admits the unit kinds
    ``admitted``: ``None`` where no unit is bound, none where the
    statements cannot run (see :func:`behaviour_form`).  This is the one
    place that decides a statement cannot act: the lowering compiles its
    result as it stands."""
    kept: list[Statement] = []
    for stmt in stmts:
        cls = stmt.__class__
        if cls is Command:
            if _carriers(stmt) & (admitted or _NO_KINDS):
                kept.append(stmt)
        elif cls is ForLoop:
            # a loop binds a unit of any kind, unless it cannot run at all
            inner = _NO_KINDS if admitted == _NO_KINDS else _ALL_KINDS
            body = _pruned(stmt.body, inner)
            if body:
                kept.append(ForLoop(tuple(body)))
        elif cls is If:
            then_kinds, else_kinds = _narrowed(stmt.cond, admitted)
            then = _pruned(stmt.then, then_kinds)
            orelse = _pruned(stmt.orelse or (), else_kinds)
            if then_kinds == _NO_KINDS or else_kinds == _NO_KINDS:
                # the guard's value is known: at most one branch can run
                kept += then + orelse
            elif then or orelse:
                kept.append(If(stmt.cond, tuple(then), tuple(orelse) or None))
        elif cls is not Empty:
            raise TypeError(f"not a statement: {stmt!r}")
    return kept


def _narrowed(call: BoolCall, admitted: frozenset[str] | None) -> tuple[
        frozenset[str] | None, frozenset[str] | None]:
    """The unit kinds that the then and else branches of ``call`` admit,
    given that its guard chain admits ``admitted`` (see :func:`_pruned`)."""
    name = call.name
    if name in _STATE_GUARDS or name in _COUNTER_GUARDS:
        if admitted is None and name in _UNIT_GATED:
            return _NO_KINDS, None
        return admitted, admitted
    holders = _holders(call)
    if admitted is None:
        return _NO_KINDS, None
    if name == "canHarvest":
        return admitted & holders, admitted
    return admitted & holders, admitted - holders


# ---------------------------------------------------------------------------
# code generation: each program is lowered once to one Python function
# ``run(ctx)``
# ---------------------------------------------------------------------------
#
# The lowering compiles the pruned body (:func:`_pruned`), so every
# statement it meets can act: each command has a bound unit and a kind that
# can carry it out, no guard's value follows from the unit kinds alone, no
# loop is empty, and no ``if`` has two empty branches. An opponent set keys matches and pair
# reports by the printed behaviour form, which is the same pruned body
# without its trailing default statements; those are compiled, since
# ``Action.source`` tells them apart.
#
# Loops become nested ``for`` statements over ``ctx.own``, each with its own
# loop variable. Every command is emitted behind a test that the bound
# unit's kind is one that can carry it out under the unit table. A ``train``
# or ``build`` also tests its count limit and the funds left, which change
# only when a spawn is assigned. A loop with no inner loop skips assigned
# units, and once its unit is assigned goes on to the next one: the rest of
# the body could only skip that unit. In a loop with an inner loop, ``u`` is
# rebound, so each command tests that its unit is still unassigned. The
# function returns as soon as a command leaves every own unit assigned,
# since nothing can change after that. State-only guards are memoized in
# ``ctx.guards``, keyed by a number shared by equal calls; the others are
# tested where they stand.
#
# The source holds no text of the program: every command, guard call,
# argument and kind set is bound in the function's namespace under a
# generated name. A block nested deeper than ``_MAX_INDENT`` levels goes
# into a function of its own, so no program meets Python's limits on
# nesting.

_MAX_INDENT = 12


class _Lowering:
    """The Python source and namespace of one program."""

    def __init__(self):
        self.namespace: dict[str, object] = {}
        self.functions: list[str] = []
        self.guard_keys: dict[BoolCall, int] = {}
        self.loops = 0

    def bind(self, value: object) -> str:
        # interned, as the compiled code's names are: every lowered program
        # shares one string per binding index
        name = sys.intern(f"_{len(self.namespace)}")
        self.namespace[name] = value
        return name

    def define(self, signature: str, body: list[str]) -> None:
        self.functions.append(
            "\n".join(
                [
                    f"def {signature}:",
                    "    own = ctx.own",
                    "    assigned = ctx.assigned",
                    "    n_own = ctx.n_own",
                    "    guards = ctx.guards",
                    "    nodes = ctx.nodes",
                    *body,
                ]
            )
        )

    def block(self, stmts: tuple[Statement, ...], unit: str | None, leaf: bool,
              local: bool, indent: int) -> list[str]:
        """Lines running ``stmts``; ``local`` says whether the loop binding
        ``unit`` is in the same function, so ``continue`` reaches it."""
        pad = "    " * indent
        if indent > _MAX_INDENT:
            # a function of its own, which returns where the block would
            # leave its loop or stop; the caller then does the same
            body = self.block(stmts, unit, leaf, False, 1)
            if not body:  # an empty branch: no function
                return []
            name = f"_f{len(self.functions)}"
            self.define(f"{name}(ctx, {unit or 'unit'})", body)
            call = f"{pad}{name}(ctx, {unit or 'None'})"
            return [call, *self.after_call(unit, leaf, local, pad)]
        lines: list[str] = []
        for stmt in stmts:
            cls = stmt.__class__
            if cls is Command:
                lines += self.command(stmt, unit, leaf, local, pad)
            elif cls is ForLoop:
                lines += self.loop(stmt, indent)
            else:
                lines += self.branch(stmt, unit, leaf, local, indent)
        return lines

    def command(self, cmd: Command, unit: str, leaf: bool, local: bool,
                pad: str) -> list[str]:
        kinds = _carriers(cmd)
        tests = [] if leaf else [f"{unit}.uid not in assigned"]
        if kinds != _ALL_KINDS:
            tests.append(f"{unit}.kind in {self.bind(kinds)}")
        run = _COMMANDS[cmd.name][0]
        if run is _spawn:
            kind = self.bind(cmd.args[0])
            tests += [
                f"ctx.own_counts.get({kind}, 0) + ctx.pending_spawns.get({kind}, 0)"
                f" < {self.bind(cmd.args[2])}",
                f"ctx.funds >= {self.bind(DEFAULT_STATS[cmd.args[0]].cost)}",
            ]
        lines = []
        if tests:
            lines.append(f"{pad}if {' and '.join(tests)}:")
            pad += "    "
        lines.append(f"{pad}{self.bind(run)}({self.bind(cmd)}, {unit}, ctx)")
        return lines + self.after_call(unit, leaf, local, pad)

    @staticmethod
    def after_call(unit: str | None, leaf: bool, local: bool,
                   pad: str) -> list[str]:
        """Stop once every own unit is assigned; in a loop with no inner
        loop, also leave the body once its unit is."""
        if not leaf:
            return [f"{pad}if len(assigned) == n_own:", f"{pad}    return"]
        if not local:
            return [f"{pad}if {unit}.uid in assigned:", f"{pad}    return"]
        return [
            f"{pad}if {unit}.uid in assigned:",
            f"{pad}    if len(assigned) == n_own:",
            f"{pad}        return",
            f"{pad}    continue",
        ]

    def loop(self, stmt: ForLoop, indent: int) -> list[str]:
        self.loops += 1
        unit = f"u{self.loops}"
        leaf = not any(inner.__class__ is ForLoop for inner in walk(stmt))
        body = self.block(stmt.body, unit, leaf, True, indent + 1)
        pad = "    " * indent
        head = [f"{pad}for {unit} in own:"]
        if leaf:
            head += [f"{pad}    if {unit}.uid in assigned:", f"{pad}        continue"]
        return head + body

    def branch(self, stmt: If, unit: str | None, leaf: bool, local: bool,
               indent: int) -> list[str]:
        pad = "    " * indent
        prelude, condition = self.guard(stmt.cond, unit, pad)
        then = self.block(stmt.then, unit, leaf, local, indent + 1)
        orelse = self.block(stmt.orelse or (), unit, leaf, local, indent + 1)
        lines = prelude + [f"{pad}if {condition}:", *(then or [f"{pad}    pass"])]
        return lines + [f"{pad}else:", *orelse] if orelse else lines

    def guard(self, call: BoolCall, unit: str | None,
              pad: str) -> tuple[list[str], str]:
        """(lines to run first, condition)."""
        name, args = call.name, call.args
        compute = _STATE_GUARDS.get(name)
        if compute is not None:
            key = self.guard_keys.setdefault(call, len(self.guard_keys))
            return [
                f"{pad}held = guards.get({key})",
                f"{pad}if held is None:",
                f"{pad}    held = guards[{key}] = "
                f"{self.bind(compute)}(ctx, {self.bind(args)})",
            ], "held"
        if name == "haveQtdUnitsAttacking":
            return [], f"ctx.attacking >= {self.bind(args[0])}"
        if name == "hasNumberOfWorkersHarvesting":
            return [], f"ctx.harvesting >= {self.bind(args[0])}"
        condition = f"{unit}.kind in {self.bind(_holders(call))}"
        if name == "canHarvest":
            condition += f" and ({unit}.carried > 0 or bool(nodes))"
        return [], condition


def _generate(program: Program) -> tuple[str, dict]:
    """The source defining ``run(ctx)`` for ``program``'s pruned form, and
    the namespace it runs in."""
    lowering = _Lowering()
    pruned = tuple(_pruned(program.body, None))
    body = lowering.block(pruned, None, False, False, 1)
    lowering.define("run(ctx)", body or ["    pass"])
    return "\n\n".join(lowering.functions) + "\n", lowering.namespace


_Run = Callable[[_Context], None]


@functools.lru_cache(maxsize=256)
def _compile(source: str) -> CodeType:
    # the source holds only the program's shape, so programs of one shape
    # (a program parsed again, say) share its code
    return compile(source, "<policy>", "exec")


def _lower(program: Program) -> _Run:
    source, namespace = _generate(program)
    exec(_compile(source), namespace)
    # taken out of its own namespace, so no cycle keeps it past its program
    return namespace.pop("run")


def _generated(program: Program) -> _Run:
    """``program``'s function, lowered once and kept in its memo. The
    functions read nothing but their program, so sharing them across
    callers and threads changes no result."""
    run = program.derived.get("run")
    if run is None:
        run = program.derived["run"] = _lower(program)
    return run


def _run(
    program: Program, state: GameState | StateView, player: int
) -> _Context:
    ctx = _Context(state, player)
    _generated(program)(ctx)
    return ctx


def evaluate_policy(
    program: Program, state: GameState | StateView, player: int
) -> dict[int, Action]:
    """Assignments for one decision point; units absent from the map are idle.

    The returned map contains an entry for every unit the policy assigned;
    callers treat missing units as ``idle()``.
    """
    return _run(program, state, player).assigned


def resolve_joint(
    program: Program, state: GameState | StateView, player: int
) -> dict[int, Action]:
    """Like :func:`evaluate_policy` but with idle resolution filled in for
    unassigned units, so two joint maps compare positionally."""
    ctx = _run(program, state, player)
    joint = ctx.assigned
    for unit in ctx.own:
        if unit.uid not in joint:
            joint[unit.uid] = ctx.idle_resolution(unit)
    return joint
