"""Distance tables against the formulas they replace.

Policy evaluation and the tick step read Chebyshev and Manhattan distances,
and the cells one move away, from per-map-size tables
(``evaluator.distances``).  The ``max``/``abs`` formulas live on here only
as oracles: every table entry of both bundled map sizes must equal them, and
so must every helper that reads the tables, on every decision state that
pool16 records against standard-8.
"""
import pytest

from lintscore.microlang import parse
from lintscore.resources import policy_sources
from lintscore.sim import DEFAULT_STATS, distances, restore_state
from lintscore.sim.evaluator import (
    _MOVE_DELTAS,
    _Context,
    _closest,
    _in_opponent_range,
    _opponent_in_player_range,
    _within_distance,
)


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def closest(unit, pool, limit):
    best = None
    for other in pool:
        dist = chebyshev(unit.pos, other.pos)
        if dist < limit:
            best, limit = other, dist
    return best


def nearest_enemy_distance(ctx, cell):
    return min((chebyshev(cell, e.pos) for e in ctx.enemies), default=0)


def next_cell(ctx, unit, goal, sign):
    x, y = unit.pos
    far = sign * chebyshev(unit.pos, goal)
    path = sign * manhattan(unit.pos, goal)
    best = None
    for mx, my in _MOVE_DELTAS:
        cell = (x + mx, y + my)
        cheb, manh = sign * chebyshev(cell, goal), sign * manhattan(cell, goal)
        if cheb < far or (cheb == far and manh < path):
            if ctx.free_cell(cell):
                best, far, path = cell, cheb, manh
    return best


def in_range(mines, enemies, reach):
    return any(
        chebyshev(mine.pos, enemy.pos) <= reach(mine, enemy)
        for mine in mines
        for enemy in enemies
    )


def attack_range(unit):
    stats = DEFAULT_STATS[unit.kind]
    return stats.attack_range if stats.can_attack else -1


@pytest.mark.parametrize("size", [8, 16])
def test_tables_equal_the_formulas(size):
    tables = distances(size, size)
    assert distances(size, size) is tables
    cells = [(x, y) for x in range(size) for y in range(size)]
    for a in cells:
        neighbours = tables.neighbours[a[0]][a[1]]
        assert neighbours == tuple(
            (a[0] + dx, a[1] + dy)
            for dx, dy in _MOVE_DELTAS
            if 0 <= a[0] + dx < size and 0 <= a[1] + dy < size
        )
        for b in cells:
            assert tables.chebyshev[a[0]][a[1]][b[0]][b[1]] == chebyshev(a, b)
            assert tables.manhattan[a[0]][a[1]][b[0]][b[1]] == manhattan(a, b)


@pytest.fixture(scope="module")
def recorded_states(oset8):
    snapshots = {}
    for _, text in sorted(policy_sources("pool16").items()):
        for record in oset8.matches(parse(text)):
            for entry in record.entries:
                snapshots.setdefault(entry.snapshot, None)
    return [restore_state(snapshot) for snapshot in snapshots]


def test_helpers_equal_the_formulas(recorded_states):
    assert len(recorded_states) > 1000
    for state in recorded_states:
        units = list(state.units.values())
        for player in (0, 1):
            ctx = _Context(state, player)
            assert _within_distance(ctx, (2,)) == in_range(
                ctx.own, ctx.enemies, lambda mine, enemy: 2
            )
            assert _in_opponent_range(ctx, ()) == in_range(
                ctx.own, ctx.enemies, lambda mine, enemy: attack_range(enemy)
            )
            assert _opponent_in_player_range(ctx, ()) == in_range(
                ctx.own, ctx.enemies, lambda mine, enemy: attack_range(mine)
            )
            for unit in ctx.own:
                for pool in (ctx.enemies, ctx.own, ctx.nodes):
                    for limit in (1, 2, 4, state.width + state.height):
                        assert _closest(unit, pool, limit, ctx.chebyshev) is (
                            closest(unit, pool, limit)
                        )
                    if pool:
                        assert ctx.select(unit, pool, "Farthest") is min(
                            pool, key=lambda v: (-chebyshev(unit.pos, v.pos), v.uid)
                        )
                for goal in units:
                    for sign in (1, -1):
                        assert ctx.next_cell(unit, goal.pos, sign) == next_cell(
                            ctx, unit, goal.pos, sign
                        )
                    assert ctx.nearest_enemy_distance(goal.pos) == (
                        nearest_enemy_distance(ctx, goal.pos)
                    )
