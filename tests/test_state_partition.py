"""The shared unit split and the id order of ``GameState.units``.

Policy evaluation reads a state's :class:`Sides` split, which the state
builds once and keeps until a spawn or a death changes which units exist,
so it is shared by both players and by later ticks. ``snapshot`` and the
split rely on ``units`` ascending by id instead of sorting it. A stale split
or an out-of-order ``units`` would make an evaluation on a live, stepped
state differ from one on the same state restored from its snapshot, where
everything is built afresh.
"""
from lintscore.metrics import OpponentSet
from lintscore.resources import data_path
from lintscore.sim import Action, DecisionEntry, GameState, engine, restore_state, step
from lintscore.sim.actions import ATTACK, HARVEST, MOVE, SPAWN
from lintscore.sim.engine import MatchCounters


def sorted_snapshot(state):
    """``GameState.snapshot`` as it was built by sorting the unit ids."""
    return (
        state.width,
        state.height,
        state.seed,
        state.player_resources[0],
        state.player_resources[1],
        tuple(state.units[uid].as_tuple() for uid in sorted(state.units)),
    )


def sorted_split(state, player):
    """(own, enemies, live nodes, own counts, enemy counts) as evaluation
    built them from sorted ids on every call."""
    own, enemies, nodes, own_counts, enemy_counts = [], [], [], {}, {}
    for uid in sorted(state.units):
        unit = state.units[uid]
        if unit.owner == player:
            own.append(unit)
            own_counts[unit.kind] = own_counts.get(unit.kind, 0) + 1
        elif unit.owner == 1 - player:
            enemies.append(unit)
            enemy_counts[unit.kind] = enemy_counts.get(unit.kind, 0) + 1
        if unit.kind == "Resource" and unit.resources > 0:
            nodes.append(unit)
    return own, enemies, nodes, own_counts, enemy_counts


def assert_in_order(state):
    assert list(state.units) == sorted(state.units)
    assert state.snapshot() == sorted_snapshot(state)
    sides = state.sides()
    for player in (0, 1):
        split = (
            sides.units[player],
            sides.units[1 - player],
            sides.nodes,
            sides.counts[player],
            sides.counts[1 - player],
        )
        assert split == sorted_split(state, player)


def rows(joint):
    return [(uid, action.to_json()) for uid, action in joint.items()]


def test_live_states_evaluate_as_restored(pool16, monkeypatch):
    """Every decision of every match of pool16 and the bundled opponents on
    standard-8, for both players, simulated from scratch."""
    oset = OpponentSet.from_file(data_path("opponents8.json"))
    programs = [program for _, program in pool16]
    programs += [opponent.program for opponent in oset.opponents]
    resolve = engine.resolve_joint
    players = []

    def differential(program, state, player):
        assert_in_order(state)
        live = resolve(program, state, player)
        restored = restore_state(state.snapshot())
        assert rows(live) == rows(resolve(program, restored, player))
        players.append(player)
        return live

    monkeypatch.setattr(engine, "resolve_joint", differential)
    for program in programs:
        for index, opponent in enumerate(oset.opponents):
            engine.play_match(
                program,
                opponent.program,
                oset.initial_state(index),
                max_ticks=oset.max_ticks,
            )
    assert players.count(0) == players.count(1) > 1000


def test_order_and_split_through_spawn_death_and_depletion():
    state = GameState(6, 6, player_resources=(5, 0))
    base = state.add_unit("Base", 0, 0, 0)
    harvester = state.add_unit("Worker", 0, 2, 2)
    node = state.add_unit("Resource", None, 3, 2, resources=1)
    state.add_unit("Light", 1, 5, 5)
    victim = state.add_unit("Worker", 1, 2, 4)
    attacker = state.add_unit("Light", 0, 2, 5)
    assert_in_order(state)

    # only moves: the split is kept, and still holds the moved unit
    kept = state.sides()
    counters = MatchCounters()
    step(state, {attacker.uid: Action(MOVE, cell=(3, 5))}, counters)
    assert state.sides() is kept
    assert_in_order(state)

    # a spawn, a death and a node running out in one tick
    step(
        state,
        {
            attacker.uid: Action(ATTACK, target=victim.uid),
            harvester.uid: Action(HARVEST, target=node.uid),
            base.uid: Action(SPAWN, cell=(1, 0), unit_type="Worker"),
        },
        counters,
    )
    assert counters.dropped == 0
    assert victim.uid not in state.units and node.uid not in state.units
    assert state.sides() is not kept
    spawned = state.units[state.next_uid - 1]
    assert spawned.pos == (1, 0) and spawned in state.sides().units[0]
    assert_in_order(state)

    copies = [state.clone(), restore_state(state.snapshot())]
    entry = DecisionEntry(
        state.snapshot(), {}, state.next_uid, *counters.frozen()
    )
    copies.append(entry.resume()[0])
    for copy in copies:
        assert_in_order(copy)
        assert copy.snapshot() == state.snapshot()
        # a spawn after a restore takes an id above every live one
        copy.add_unit("Light", 1, 4, 4)
        assert_in_order(copy)
