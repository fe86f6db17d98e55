"""Tick resolution: attack, harvest/deposit, move, and spawn phases."""

from lintscore.sim import Action, GameState, restore_state, step
from lintscore.sim.actions import ATTACK, DEPOSIT, HARVEST, MOVE, SPAWN
from lintscore.sim.engine import MatchCounters


def grid(width=8, height=8, seed=0, resources=(0, 0)):
    return GameState(width, height, seed=seed, player_resources=resources)


def run(state, actions):
    counters = MatchCounters()
    step(state, actions, counters)
    return counters


class TestAttackPhase:
    def test_attacks_land_simultaneously(self):
        state = grid()
        a = state.add_unit("Heavy", 0, 2, 2)
        b = state.add_unit("Heavy", 1, 3, 3)
        run(state, {
            a.uid: Action(ATTACK, target=b.uid),
            b.uid: Action(ATTACK, target=a.uid),
        })
        # damage 4 against 4 hp, applied against start-of-tick values
        assert a.uid not in state.units
        assert b.uid not in state.units

    def test_damage_stacks(self):
        state = grid()
        a = state.add_unit("Light", 0, 2, 2)
        b = state.add_unit("Light", 0, 4, 4)
        victim = state.add_unit("Heavy", 1, 3, 3)
        run(state, {
            a.uid: Action(ATTACK, target=victim.uid),
            b.uid: Action(ATTACK, target=victim.uid),
        })
        # two Light hits of 2 remove the Heavy's 4 hp
        assert victim.uid not in state.units

    def test_out_of_range_attack_dropped(self):
        state = grid()
        a = state.add_unit("Heavy", 0, 0, 0)
        b = state.add_unit("Heavy", 1, 5, 5)
        counters = run(state, {a.uid: Action(ATTACK, target=b.uid)})
        assert state.units[b.uid].hp == 4
        assert counters.dropped == 1

    def test_friendly_fire_dropped(self):
        state = grid()
        a = state.add_unit("Heavy", 0, 2, 2)
        b = state.add_unit("Heavy", 0, 3, 3)
        counters = run(state, {a.uid: Action(ATTACK, target=b.uid)})
        assert state.units[b.uid].hp == 4
        assert counters.dropped == 1

    def test_attack_on_resource_node_dropped(self):
        state = grid()
        a = state.add_unit("Heavy", 0, 2, 2)
        node = state.add_unit("Resource", None, 3, 3, resources=5)
        counters = run(state, {a.uid: Action(ATTACK, target=node.uid)})
        assert node.uid in state.units
        assert counters.dropped == 1


class TestHarvestPhase:
    def test_harvest_transfers_one_unit(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1)
        node = state.add_unit("Resource", None, 0, 0, resources=5)
        counters = run(state, {worker.uid: Action(HARVEST, target=node.uid)})
        assert worker.carried == 1
        assert node.resources == 4
        assert counters.collected == [1, 0]

    def test_harvest_while_carrying_dropped(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1, carried=1)
        node = state.add_unit("Resource", None, 0, 0, resources=5)
        counters = run(state, {worker.uid: Action(HARVEST, target=node.uid)})
        assert node.resources == 5
        assert counters.dropped == 1

    def test_depleted_node_removed_at_end_of_tick(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1)
        node = state.add_unit("Resource", None, 0, 0, resources=1)
        run(state, {worker.uid: Action(HARVEST, target=node.uid)})
        assert worker.carried == 1
        assert node.uid not in state.units

    def test_deposit_credits_owner(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1, carried=1)
        base = state.add_unit("Base", 0, 2, 2)
        run(state, {worker.uid: Action(DEPOSIT, target=base.uid)})
        assert state.player_resources[0] == 1
        assert worker.carried == 0

    def test_deposit_at_enemy_base_dropped(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1, carried=1)
        base = state.add_unit("Base", 1, 2, 2)
        counters = run(state, {worker.uid: Action(DEPOSIT, target=base.uid)})
        assert state.player_resources == [0, 0]
        assert worker.carried == 1
        assert counters.dropped == 1

    def test_killed_worker_still_completes_harvest(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1)
        node = state.add_unit("Resource", None, 0, 0, resources=5)
        enemy = state.add_unit("Heavy", 1, 2, 2)
        counters = run(state, {
            enemy.uid: Action(ATTACK, target=worker.uid),
            worker.uid: Action(HARVEST, target=node.uid),
        })
        # deaths apply at end of tick, so the doomed Worker still harvests
        assert worker.uid not in state.units
        assert node.resources == 4
        assert counters.collected == [1, 0]


class TestMovePhase:
    def test_move_to_free_cell(self):
        state = grid()
        light = state.add_unit("Light", 0, 2, 2)
        run(state, {light.uid: Action(MOVE, cell=(3, 2))})
        assert light.pos == (3, 2)
        assert state.occupancy[(3, 2)] == light.uid

    def test_move_conflict_first_uid_wins(self):
        state = grid()
        a = state.add_unit("Light", 0, 1, 2)
        b = state.add_unit("Light", 0, 3, 2)
        counters = run(state, {
            a.uid: Action(MOVE, cell=(2, 2)),
            b.uid: Action(MOVE, cell=(2, 2)),
        })
        assert a.pos == (2, 2)
        assert b.pos == (3, 2)
        assert counters.dropped == 1

    def test_conflicts_resolve_by_uid_not_map_order(self):
        state = grid(resources=(1, 0))
        a = state.add_unit("Light", 0, 1, 2)
        b = state.add_unit("Light", 0, 3, 2)
        first = state.add_unit("Worker", 0, 5, 5)
        second = state.add_unit("Worker", 0, 7, 5)
        node = state.add_unit("Resource", None, 6, 5, resources=1)
        base = state.add_unit("Base", 0, 0, 7)
        barracks = state.add_unit("Barracks", 0, 2, 7)
        # the map lists each phase's higher uid first
        counters = run(state, {
            b.uid: Action(MOVE, cell=(2, 2)),
            a.uid: Action(MOVE, cell=(2, 2)),
            second.uid: Action(HARVEST, target=node.uid),
            first.uid: Action(HARVEST, target=node.uid),
            barracks.uid: Action(SPAWN, cell=(1, 7), unit_type="Light"),
            base.uid: Action(SPAWN, cell=(1, 7), unit_type="Worker"),
        })
        assert a.pos == (2, 2) and b.pos == (3, 2)
        assert (first.carried, second.carried) == (1, 0)
        assert state.units[state.occupancy[(1, 7)]].kind == "Worker"
        assert counters.dropped == 3

    def test_move_into_cell_vacated_this_tick(self):
        state = grid()
        a = state.add_unit("Light", 0, 2, 2)
        b = state.add_unit("Light", 0, 1, 2)
        counters = run(state, {
            a.uid: Action(MOVE, cell=(3, 2)),
            b.uid: Action(MOVE, cell=(2, 2)),
        })
        assert a.pos == (3, 2)
        assert b.pos == (2, 2)
        assert counters.dropped == 0

    def test_immobile_kind_does_not_move(self):
        state = grid()
        base = state.add_unit("Base", 0, 2, 2)
        run(state, {base.uid: Action(MOVE, cell=(3, 2))})
        assert base.pos == (2, 2)


class TestSpawnPhase:
    def test_spawn_deducts_and_places(self):
        state = grid(resources=(5, 0))
        base = state.add_unit("Base", 0, 2, 2)
        counters = run(
            state,
            {base.uid: Action(SPAWN, cell=(2, 1), unit_type="Worker")},
        )
        assert state.player_resources[0] == 4
        spawned = state.units[state.occupancy[(2, 1)]]
        assert spawned.kind == "Worker"
        assert spawned.owner == 0
        assert counters.spawned[0] == {"Worker": 1}

    def test_spawn_blocked_by_move_is_dropped(self):
        state = grid(resources=(5, 0))
        base = state.add_unit("Base", 0, 2, 2)
        light = state.add_unit("Light", 0, 2, 0)
        counters = run(state, {
            base.uid: Action(SPAWN, cell=(2, 1), unit_type="Worker"),
            light.uid: Action(MOVE, cell=(2, 1)),
        })
        # moves resolve before spawns, so the cell is taken
        assert state.player_resources[0] == 5
        assert counters.dropped == 1

    def test_spawn_without_resources_dropped(self):
        state = grid(resources=(3, 0))
        base = state.add_unit("Barracks", 0, 2, 2)
        counters = run(
            state,
            {base.uid: Action(SPAWN, cell=(2, 1), unit_type="Barracks")},
        )
        assert state.player_resources[0] == 3
        assert counters.dropped == 1

    def test_feature_vector_order(self):
        counters = MatchCounters()
        counters.spawned[0].update({"Worker": 3, "Barracks": 1, "Light": 2})
        counters.collected[0] = 7
        assert counters.feature_vector(0) == (3, 2, 0, 0, 0, 1, 7)
        assert counters.feature_vector(1) == (0, 0, 0, 0, 0, 0, 0)


class TestSnapshots:
    def test_restore_state_round_trips(self):
        state = grid(seed=9, resources=(3, 1))
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 5, 5, carried=1)
        state.add_unit("Resource", None, 0, 0, resources=8)
        restored = restore_state(state.snapshot())
        assert restored.snapshot() == state.snapshot()
        assert restored.next_uid == state.next_uid

    def test_clone_is_independent(self):
        state = grid()
        unit = state.add_unit("Light", 0, 2, 2)
        twin = state.clone()
        state.move_unit(unit.uid, (3, 3))
        assert twin.units[unit.uid].pos == (2, 2)
        assert twin.snapshot() != state.snapshot()
