"""Policy evaluation: priorities, eligibility gates, guards, targeting."""

import pytest

from lintscore.metrics import OpponentSet, compare
from lintscore.microlang import parse
from lintscore.microlang.ast import BoolCall, Command, ForLoop, If, Program
from lintscore.resources import data_path
from lintscore.sim import (
    DEFAULT_STATS,
    Action,
    GameState,
    evaluate_policy,
    resolve_joint,
)
from lintscore.sim.actions import ATTACK, DEPOSIT, HARVEST, MOVE, SPAWN
from lintscore.sim.evaluator import _STANDS, _generate


def grid(width=8, height=8, seed=0, resources=(0, 0)):
    return GameState(width, height, seed=seed, player_resources=resources)


def loop(body):
    return parse("for(Unit u){\n" + body + "\n}")


class TestPrioritiesAndWriteOnce:
    def test_first_eligible_command_wins(self):
        state = grid(resources=(5, 0))
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 7, 7)
        program = loop("u.idle()\nu.attack(Closest)")
        actions = evaluate_policy(program, state, 0)
        base = state.sides().units[0][0]
        assert actions[base.uid].source == "idle"

    def test_units_iterate_in_ascending_uid_order(self):
        state = grid(resources=(1, 0))
        first = state.add_unit("Base", 0, 1, 1)
        second = state.add_unit("Base", 0, 5, 5)
        state.add_unit("Worker", 1, 7, 7)
        program = loop("u.train(Worker,Up,2)")
        actions = evaluate_policy(program, state, 0)
        # one Worker affordable: the lower-uid base commits the cost first
        assert first.uid in actions
        assert second.uid not in actions

    def test_committed_cost_blocks_later_spawns(self):
        state = grid(resources=(5, 0))
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Base", 0, 3, 3)
        state.add_unit("Resource", None, 0, 0, resources=10)
        state.add_unit("Worker", 1, 7, 7)
        program = parse(
            "for(Unit u){\n"
            "    u.train(Worker,Up,2)\n"
            "}\n"
            "for(Unit u){\n"
            "    u.build(Barracks,EnemyDir,1)\n"
            "    u.harvest(25)\n"
            "}"
        )
        actions = evaluate_policy(program, state, 0)
        worker, base = state.sides().units[0]
        # the first loop trains a Worker (cost 1), leaving 4 < 5 for the
        # Barracks, so in the second loop the Worker falls through to harvest
        assert actions[base.uid].op == SPAWN
        assert actions[base.uid].unit_type == "Worker"
        assert actions[worker.uid].source == "harvest"

    def test_pending_spawns_count_toward_limit(self):
        state = grid(resources=(10, 0))
        state.add_unit("Worker", 0, 0, 0)
        a = state.add_unit("Base", 0, 2, 2)
        b = state.add_unit("Base", 0, 5, 5)
        state.add_unit("Worker", 1, 7, 7)
        actions = evaluate_policy(loop("u.train(Worker,Up,2)"), state, 0)
        # one live Worker plus one pending spawn reaches the limit of 2
        assert a.uid in actions
        assert b.uid not in actions

    def test_count_limit_reached_skips(self):
        state = grid(resources=(10, 0))
        state.add_unit("Worker", 0, 0, 0)
        state.add_unit("Worker", 0, 1, 0)
        state.add_unit("Base", 0, 3, 3)
        state.add_unit("Worker", 1, 7, 7)
        actions = evaluate_policy(loop("u.train(Worker,Up,2)"), state, 0)
        assert actions == {}

    def test_ineligible_kind_falls_through(self):
        state = grid(resources=(5, 0))
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Resource", None, 0, 0, resources=10)
        state.add_unit("Base", 1, 7, 7)
        program = loop("u.train(Heavy,EnemyDir,8)\nu.harvest(25)")
        worker = state.sides().units[0][0]
        actions = evaluate_policy(program, state, 0)
        assert actions[worker.uid].op == HARVEST


class TestTopLevelStatements:
    def test_bare_command_is_inert(self):
        state = grid(resources=(5, 0))
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 7, 7)
        assert evaluate_policy(parse("u.train(Worker,Up,2)"), state, 0) == {}

    def test_unit_bound_guard_is_false(self):
        state = grid()
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 7, 7)
        program = parse("if(u.is_Type(Base)) then { for(Unit u){ u.idle() } }")
        assert evaluate_policy(program, state, 0) == {}

    def test_player_level_guard_works(self):
        state = grid()
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 7, 7)
        program = parse(
            "if(u.hasNumberOfUnits(Base,1)) then { for(Unit u){ u.idle() } }"
        )
        base = state.sides().units[0][0]
        assert base.uid in evaluate_policy(program, state, 0)

    def test_empty_program_assigns_nothing(self):
        state = grid()
        state.add_unit("Base", 0, 2, 2)
        assert evaluate_policy(parse(""), state, 0) == {}


class TestGuards:
    def setup_state(self):
        state = grid()
        state.add_unit("Heavy", 0, 2, 2)
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Light", 1, 6, 6)
        return state

    def run_guard(self, state, guard):
        program = parse(
            f"if({guard}) then {{ for(Unit u){{ u.idle() }} }}"
        )
        return bool(evaluate_policy(program, state, 0))

    def test_has_number_of_units(self):
        state = self.setup_state()
        assert self.run_guard(state, "u.hasNumberOfUnits(Heavy,1)")
        assert not self.run_guard(state, "u.hasNumberOfUnits(Heavy,2)")

    def test_opponent_has_number_of_units(self):
        state = self.setup_state()
        assert self.run_guard(state, "u.opponentHasNumberOfUnits(Light,1)")
        assert not self.run_guard(state, "u.opponentHasNumberOfUnits(Heavy,1)")

    def test_has_less_number_of_units(self):
        state = self.setup_state()
        assert self.run_guard(state, "u.hasLessNumberOfUnits(Ranged,1)")
        assert not self.run_guard(state, "u.hasLessNumberOfUnits(Heavy,1)")

    def test_has_unit_within_distance(self):
        state = self.setup_state()
        # Heavy (2,2) to Light (6,6): Chebyshev 4
        assert self.run_guard(state, "u.hasUnitWithinDistanceFromOpponent(4)")
        assert not self.run_guard(state, "u.hasUnitWithinDistanceFromOpponent(3)")

    def run_unit_guard(self, state, guard, kind):
        program = loop(
            f"if(u.is_Type({kind})) then {{\n"
            f"    if({guard}) then {{ u.idle() }}\n"
            "}"
        )
        actions = evaluate_policy(program, state, 0)
        uid = next(u.uid for u in state.sides().units[0] if u.kind == kind)
        return uid in actions

    def test_is_type_and_is_builder(self):
        state = self.setup_state()
        assert self.run_unit_guard(state, "u.isBuilder()", "Worker")
        assert not self.run_unit_guard(state, "u.isBuilder()", "Heavy")

    def test_can_attack(self):
        state = grid()
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Heavy", 0, 3, 3)
        state.add_unit("Light", 1, 6, 6)
        assert self.run_unit_guard(state, "u.canAttack()", "Heavy")
        assert not self.run_unit_guard(state, "u.canAttack()", "Base")

    def test_can_harvest_requires_node_or_cargo(self):
        bare = grid()
        bare.add_unit("Worker", 0, 1, 1)
        bare.add_unit("Base", 1, 6, 6)
        assert not self.run_unit_guard(bare, "u.canHarvest()", "Worker")

        with_node = grid()
        with_node.add_unit("Worker", 0, 1, 1)
        with_node.add_unit("Resource", None, 0, 0, resources=5)
        with_node.add_unit("Base", 1, 6, 6)
        assert self.run_unit_guard(with_node, "u.canHarvest()", "Worker")

        carrying = grid()
        carrying.add_unit("Worker", 0, 1, 1, carried=1)
        carrying.add_unit("Base", 1, 6, 6)
        assert self.run_unit_guard(carrying, "u.canHarvest()", "Worker")

    def test_one_shot_kill_guards(self):
        state = grid()
        state.add_unit("Heavy", 0, 2, 2)  # damage 4 kills the 1-hp Ranged
        state.add_unit("Ranged", 1, 6, 6)  # damage 1 cannot kill the Heavy
        assert self.run_unit_guard(
            state, "u.hasUnitThatKillsInOneAttack()", "Heavy"
        )
        assert not self.run_unit_guard(
            state, "u.opponentHasUnitThatKillsUnitInOneAttack()", "Heavy"
        )

    def test_range_guards(self):
        state = grid()
        state.add_unit("Heavy", 0, 2, 2)  # range 1
        state.add_unit("Ranged", 1, 4, 2)  # range 3, distance 2
        assert self.run_unit_guard(state, "u.hasUnitInOpponentRange()", "Heavy")
        assert not self.run_unit_guard(
            state, "u.opponentHasUnitInPlayerRange()", "Heavy"
        )

    def test_activity_counters_see_earlier_assignments(self):
        state = grid()
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Worker", 0, 3, 3)
        state.add_unit("Resource", None, 0, 0, resources=5)
        state.add_unit("Resource", None, 4, 4, resources=5)
        state.add_unit("Base", 1, 7, 7)
        program = parse(
            "for(Unit u){\n"
            "    u.harvest(1)\n"
            "}\n"
            "if(u.hasNumberOfWorkersHarvesting(1)) then {\n"
            "    for(Unit u){\n"
            "        u.moveToUnit(Enemy,Closest)\n"
            "    }\n"
            "}"
        )
        first, second = state.sides().units[0]
        actions = evaluate_policy(program, state, 0)
        # the harvest cap of 1 leaves the second Worker unassigned; the
        # counter guard then sees one harvester and releases the second loop
        assert actions[first.uid].source == "harvest"
        assert actions[second.uid].source == "moveToUnit"


class TestCommandResolution:
    def test_attack_in_range_resolves_to_attack(self):
        state = grid()
        state.add_unit("Heavy", 0, 2, 2)
        victim = state.add_unit("Worker", 1, 3, 3)
        actions = evaluate_policy(loop("u.attack(Closest)"), state, 0)
        heavy = state.sides().units[0][0]
        assert actions[heavy.uid] == Action(ATTACK, target=victim.uid)

    def test_attack_out_of_range_moves_closer(self):
        state = grid()
        heavy = state.add_unit("Heavy", 0, 0, 0)
        state.add_unit("Worker", 1, 5, 5)
        actions = evaluate_policy(loop("u.attack(Closest)"), state, 0)
        assert actions[heavy.uid] == Action(MOVE, cell=(1, 1))

    def test_every_attacker_can_move(self):
        # ``attack`` approaches an out-of-range victim with no check that the
        # unit can move: an immobile attacker would need one
        attackers = [kind for kind, stats in DEFAULT_STATS.items() if stats.can_attack]
        assert attackers
        assert all(DEFAULT_STATS[kind].can_move for kind in attackers)

    def test_attack_blocked_stands(self):
        state = grid()
        heavy = state.add_unit("Heavy", 0, 0, 0)
        state.add_unit("Base", 0, 1, 0)
        state.add_unit("Base", 0, 0, 1)
        state.add_unit("Barracks", 0, 1, 1)
        state.add_unit("Worker", 1, 5, 5)
        actions = evaluate_policy(loop("u.attack(Closest)"), state, 0)
        assert actions[heavy.uid] == Action("stand")

    def test_attack_criteria_selection(self):
        state = grid()
        state.add_unit("Ranged", 0, 0, 0)
        weak = state.add_unit("Worker", 1, 1, 0)  # damage 1, hp 1
        strong = state.add_unit("Heavy", 1, 0, 1)  # damage 4, hp 4
        ranged = state.sides().units[0][0]
        strongest = evaluate_policy(loop("u.attack(Strongest)"), state, 0)
        assert strongest[ranged.uid].target == strong.uid
        weakest = evaluate_policy(loop("u.attack(Weakest)"), state, 0)
        assert weakest[ranged.uid].target == weak.uid
        less_healthy = evaluate_policy(loop("u.attack(LessHealthy)"), state, 0)
        assert less_healthy[ranged.uid].target == weak.uid
        most_healthy = evaluate_policy(loop("u.attack(MostHealthy)"), state, 0)
        assert most_healthy[ranged.uid].target == strong.uid

    def test_attack_random_is_deterministic(self):
        state = grid(seed=3)
        state.add_unit("Ranged", 0, 0, 0)
        enemies = [
            state.add_unit("Worker", 1, 1, 0),
            state.add_unit("Worker", 1, 0, 1),
            state.add_unit("Worker", 1, 1, 1),
        ]
        ranged = state.sides().units[0][0]
        first = evaluate_policy(loop("u.attack(Random)"), state, 0)
        second = evaluate_policy(loop("u.attack(Random)"), state, 0)
        assert first == second
        assert first[ranged.uid].target in {e.uid for e in enemies}

    def test_attack_if_in_range_only_fires_in_range(self):
        state = grid()
        heavy = state.add_unit("Heavy", 0, 0, 0)
        state.add_unit("Worker", 1, 5, 5)
        actions = evaluate_policy(loop("u.attack_if_in_range()"), state, 0)
        assert heavy.uid not in actions

    def test_harvest_adjacent_node(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1)
        node = state.add_unit("Resource", None, 0, 0, resources=5)
        actions = evaluate_policy(loop("u.harvest(25)"), state, 0)
        assert actions[worker.uid] == Action(HARVEST, target=node.uid)

    def test_harvest_when_carrying_deposits(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 1, 1, carried=1)
        base = state.add_unit("Base", 0, 2, 2)
        state.add_unit("Resource", None, 0, 0, resources=5)
        actions = evaluate_policy(loop("u.harvest(25)"), state, 0)
        assert actions[worker.uid] == Action(DEPOSIT, target=base.uid)

    def test_harvest_moves_toward_far_node(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 4, 4)
        state.add_unit("Resource", None, 0, 0, resources=5)
        actions = evaluate_policy(loop("u.harvest(25)"), state, 0)
        assert actions[worker.uid] == Action(MOVE, cell=(3, 3), source="harvest")

    def test_train_spawn_cell_clockwise_fallback(self):
        state = grid(resources=(5, 0))
        base = state.add_unit("Base", 0, 0, 0)  # Up is out of bounds
        state.add_unit("Worker", 1, 7, 7)
        actions = evaluate_policy(loop("u.train(Worker,Up,2)"), state, 0)
        assert actions[base.uid].cell == (1, 0)

    def test_train_enemydir_picks_cell_closest_to_enemy(self):
        state = grid(resources=(5, 0))
        base = state.add_unit("Base", 0, 2, 2)
        state.add_unit("Worker", 1, 2, 7)  # due south
        actions = evaluate_policy(loop("u.train(Worker,EnemyDir,2)"), state, 0)
        assert actions[base.uid].cell == (2, 3)

    def test_spawn_reservations_do_not_collide(self):
        state = grid(resources=(10, 0))
        a = state.add_unit("Base", 0, 0, 0)
        b = state.add_unit("Base", 0, 1, 1)
        state.add_unit("Worker", 1, 7, 7)
        actions = evaluate_policy(loop("u.train(Worker,Up,5)"), state, 0)
        assert actions[a.uid].cell != actions[b.uid].cell

    def test_move_to_unit_ally_excludes_self(self):
        state = grid()
        lone = state.add_unit("Light", 0, 4, 4)
        state.add_unit("Worker", 1, 7, 7)
        actions = evaluate_policy(loop("u.moveToUnit(Ally,Closest)"), state, 0)
        assert lone.uid not in actions

    def test_move_to_unit_enemy(self):
        state = grid()
        light = state.add_unit("Light", 0, 0, 0)
        state.add_unit("Worker", 1, 0, 5)
        actions = evaluate_policy(loop("u.moveToUnit(Enemy,Closest)"), state, 0)
        assert actions[light.uid] == Action(MOVE, cell=(0, 1))

    def test_move_around_blocking_obstacle(self):
        state = grid()
        light = state.add_unit("Light", 0, 0, 0)
        state.add_unit("Base", 0, 1, 1)  # blocks the diagonal
        state.add_unit("Worker", 1, 3, 3)
        actions = evaluate_policy(loop("u.moveToUnit(Enemy,Closest)"), state, 0)
        # slides to an adjacent cell that still improves the distance pair
        assert actions[light.uid] == Action(MOVE, cell=(1, 0))

    def test_move_away_from_own_base(self):
        state = grid()
        state.add_unit("Base", 0, 0, 0)
        light = state.add_unit("Light", 0, 2, 2)
        actions = evaluate_policy(loop("u.moveAway()"), state, 0)
        assert actions[light.uid] == Action(MOVE, cell=(3, 3))

    def test_empty_statement_is_noop(self):
        state = grid()
        state.add_unit("Light", 0, 2, 2)
        assert evaluate_policy(loop("e"), state, 0) == {}


class TestIdleResolution:
    def test_idle_auto_attacks_closest_in_range(self):
        state = grid()
        ranged = state.add_unit("Ranged", 0, 0, 0)
        state.add_unit("Worker", 1, 3, 3)  # distance 3 = range
        actions = evaluate_policy(loop("u.idle()"), state, 0)
        assert actions[ranged.uid].op == ATTACK

    def test_idle_stands_when_nothing_in_range(self):
        state = grid()
        ranged = state.add_unit("Ranged", 0, 0, 0)
        state.add_unit("Worker", 1, 4, 4)
        actions = evaluate_policy(loop("u.idle()"), state, 0)
        assert actions[ranged.uid] == Action("stand")

    def test_resolve_joint_fills_unassigned_with_idle(self):
        state = grid()
        ranged = state.add_unit("Ranged", 0, 0, 0)
        base = state.add_unit("Base", 0, 5, 5)
        victim = state.add_unit("Worker", 1, 2, 2)
        joint = resolve_joint(parse(""), state, 0)
        assert joint[ranged.uid] == Action(ATTACK, target=victim.uid)
        assert joint[base.uid] == Action("stand")

    def test_explicit_idle_equals_absent_assignment(self):
        state = grid()
        state.add_unit("Ranged", 0, 0, 0)
        state.add_unit("Worker", 1, 2, 2)
        explicit = resolve_joint(loop("u.idle()"), state, 0)
        absent = resolve_joint(parse(""), state, 0)
        assert explicit == absent


class TestGeneratedFunctions:
    """Each program runs its own generated function."""

    def test_program_text_never_reaches_the_source(self):
        hostile = "Base')\n\"import os\nos.system('false')  # '''"
        program = Program(
            (
                ForLoop(
                    (
                        If(
                            BoolCall("is_Type", (hostile,)),
                            (Command("idle"),),
                            (Command("train", (hostile, "Up", 1)),),
                        ),
                        If(
                            BoolCall("hasNumberOfUnits", (hostile, 1)),
                            (Command("idle"),),
                        ),
                        Command("build", (hostile, "Left", 3)),
                    )
                ),
            )
        )
        source, _ = _generate(program)
        assert "import" not in source and "system" not in source
        state = grid(resources=(20, 0))
        base = state.add_unit("Base", 0, 2, 2)
        worker = state.add_unit("Worker", 0, 5, 5)
        state.add_unit("Worker", 1, 7, 7)
        # no kind is named so, trains or builds one, or is counted as one
        assert evaluate_policy(program, state, 0) == {}
        joint = resolve_joint(program, state, 0)
        assert joint == {base.uid: Action("stand"), worker.uid: Action("stand")}

    def test_no_own_units(self):
        state = grid(resources=(5, 0))
        state.add_unit("Worker", 1, 7, 7)
        program = parse(
            "u.idle()\n"
            "if(u.hasUnitThatKillsInOneAttack()) then { u.idle() }\n"
            "for(Unit u){\n"
            "    for(Unit u){ u.train(Worker,Up,2) }\n"
            "    u.attack(Closest)\n"
            "}"
        )
        assert evaluate_policy(program, state, 0) == {}
        assert resolve_joint(program, state, 0) == {}

    def test_unit_gated_guard_is_false_outside_any_loop(self):
        state = grid()
        worker = state.add_unit("Worker", 0, 2, 2)
        state.add_unit("Worker", 1, 6, 6)  # one hit point: killable in one
        guard = "if(u.hasUnitThatKillsInOneAttack()) then {"
        outside = parse(guard + " for(Unit u){ u.idle() } }")
        inside = loop(guard + " u.idle() }")
        assert evaluate_policy(outside, state, 0) == {}
        assert worker.uid in evaluate_policy(inside, state, 0)

    @pytest.mark.parametrize(
        "deep, shallow",
        [
            (
                "for(Unit u){" * 40 + "u.harvest(1) u.idle()" + "}" * 40,
                "for(Unit u){ u.harvest(1) u.idle() }",
            ),
            (
                "for(Unit u){"
                + "if(u.canAttack()) then {" * 40
                + "u.attack_if_in_range() u.harvest(5)"
                + "}" * 40
                + " u.moveAway() }",
                "for(Unit u){ if(u.canAttack()) then {"
                " u.attack_if_in_range() u.harvest(5) } u.moveAway() }",
            ),
            (
                "for(Unit u){ for(Unit u){"
                + "if(u.canHarvest()) then {" * 40
                + "u.harvest(2)"
                + "}" * 40
                + "} u.idle() }",
                "for(Unit u){ for(Unit u){ if(u.canHarvest()) then { u.harvest(2) }"
                " } u.idle() }",
            ),
            (
                # a state guard: pruning keeps all 40, so the split is reached
                "for(Unit u){"
                + "if(u.hasNumberOfUnits(Worker,1)) then {" * 40
                + "u.harvest(1) u.attack(Closest)"
                + "}" * 40
                + " u.idle() }",
                "for(Unit u){ if(u.hasNumberOfUnits(Worker,1)) then {"
                " u.harvest(1) u.attack(Closest) } u.idle() }",
            ),
        ],
        ids=[
            "loops",
            "guards-in-a-loop",
            "guards-in-an-inner-loop",
            "unprunable-guards-in-a-loop",
        ],
    )
    def test_deep_nesting_equals_shallow(self, deep, shallow):
        state = grid()
        state.add_unit("Base", 0, 0, 0)
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Worker", 0, 2, 1)
        state.add_unit("Light", 0, 4, 4)
        state.add_unit("Worker", 0, 5, 4)  # in range of the enemy
        state.add_unit("Resource", None, 0, 2, resources=5)
        state.add_unit("Worker", 1, 5, 5)
        expected = resolve_joint(parse(shallow), state, 0)
        joint = resolve_joint(parse(deep), state, 0)
        assert {u: a.to_json() for u, a in joint.items()} == {
            u: a.to_json() for u, a in expected.items()
        }


class TestAction:
    ACTIONS = [
        Action(op, target=target, cell=cell, unit_type=kind, source=source)
        for op, target, cell, kind in [
            ("stand", None, None, None),
            (ATTACK, 0, None, None),
            (ATTACK, 3, None, None),
            (MOVE, None, (1, 2), None),
            (MOVE, None, (2, 1), None),
            (SPAWN, None, (1, 2), "Light"),
            (SPAWN, None, (1, 2), "Heavy"),
        ]
        for source in ("", "idle", "attack")
    ]

    def test_equality_ignores_source(self):
        for a in self.ACTIONS:
            for b in self.ACTIONS:
                same = (a.op, a.target, a.cell, a.unit_type) == (
                    b.op, b.target, b.cell, b.unit_type
                )
                assert (a == b) is same
                assert (a != b) is not same
        assert Action(MOVE, cell=(1, 2), source="attack") == Action(
            MOVE, cell=(1, 2), source="harvest"
        )
        assert Action("stand") != None  # noqa: E711
        assert Action("stand") != ("stand", None, None, None, "")

    def test_hash_agrees_with_equality(self):
        for a in self.ACTIONS:
            for b in self.ACTIONS:
                if a == b:
                    assert hash(a) == hash(b)
        assert len(set(self.ACTIONS)) == len(self.ACTIONS) // 3

    def test_to_json(self):
        assert Action("stand").to_json() == {"op": "stand"}
        assert Action(ATTACK, target=0, source="idle").to_json() == {
            "op": "attack",
            "target": 0,
            "source": "idle",
        }
        spawn = Action(SPAWN, target=None, cell=(1, 2), unit_type="Light",
                       source="train").to_json()
        assert list(spawn.items()) == [
            ("op", "spawn"), ("cell", [1, 2]), ("unit_type", "Light"),
            ("source", "train"),
        ]
        assert Action(HARVEST, target=4, source="harvest").to_json() == {
            "op": "harvest", "target": 4, "source": "harvest",
        }

    def test_shared_actions_are_never_written(self, pool16, monkeypatch):
        """The evaluator returns the same object for every situation-free
        result: no code that matches, follows, replays or records them may
        write to one."""
        shared = list(_STANDS.values())
        fields = [(a.op, a.target, a.cell, a.unit_type, a.source) for a in shared]
        setattr_ = Action.__setattr__

        def guarded(action, name, value):
            if any(action is a for a in shared):
                raise AssertionError(f"{name} written on shared {action!r}")
            setattr_(action, name, value)

        monkeypatch.setattr(Action, "__setattr__", guarded)
        oset = OpponentSet.from_file(data_path("opponents8.json"))
        programs = [program for _, program in pool16]
        returned = 0
        for program in programs:
            for record in oset.matches(program):
                record.to_json()
                for entry in record.entries:
                    returned += sum(
                        any(action is a for a in shared)
                        for action in entry.actions.values()
                    )
        for pi, other in zip(programs, programs[1:]):
            compare([(pi, other)], oset, per_unit=True)
        assert returned > 0
        assert [
            (a.op, a.target, a.cell, a.unit_type, a.source) for a in shared
        ] == fields
        assert all(a.source and a.op == "stand" for a in shared)
