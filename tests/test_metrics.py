"""Behavior metrics: action/outcome/feature measures and opponent sets.

Several tests run tiny hand-built duels where every outcome can be derived
from the movement/attack rules by hand; the frozen pool-8 values are oracle
constants from the deterministic simulator.
"""
import random
import sys
import threading

import pytest

from lintscore.harness import load_opponent_set, load_program_set
from lintscore.metrics import (
    BehaviorReport,
    OpponentSet,
    action_metric,
    compare,
    decision_states,
    feature_distance,
    feature_metric,
    mean_feature_vector,
    outcome_metric,
)
from lintscore.metrics import behavior
from lintscore.metrics.opponents import Opponent
from lintscore.microlang import parse
from lintscore.resources import data_path
from lintscore.sim import resolve_joint, restore_state

ATTACK_ALL = "for(Unit u){ u.attack(Closest) }"
PASSIVE_ALL = "for(Unit u){ u.moveToUnit(Ally,Closest) }"
IDLE_ALL = "for(Unit u){ u.idle() }"
HARVEST_ALL = "for(Unit u){ u.harvest(5) }"


def outcomes(oset, program):
    return tuple(record.outcome for record in oset.matches(program))


def _mini_set(cells, sources, *, size=4, max_ticks=60):
    data = {
        "name": "mini",
        "width": size,
        "height": size,
        "player_resources": [0, 0],
        "cells": cells,
    }
    opponents = [
        Opponent(f"opp{i}", src, parse(src)) for i, src in enumerate(sources)
    ]
    return OpponentSet("mini", opponents, data, seed=0, max_ticks=max_ticks)


@pytest.fixture(scope="module")
def strong_set():
    """P0 fields a Heavy (plus a Base); the lone enemy Worker cannot win."""
    return _mini_set(
        [
            {"pos": [0, 0], "kind": "Base", "owner": "P0"},
            {"pos": [1, 1], "kind": "Heavy", "owner": "P0"},
            {"pos": [2, 2], "kind": "Worker", "owner": "P1"},
        ],
        ("", ATTACK_ALL),
    )


@pytest.fixture(scope="module")
def weak_set():
    """P0's lone Worker dies to the enemy Heavy whatever it does."""
    return _mini_set(
        [
            {"pos": [1, 1], "kind": "Worker", "owner": "P0"},
            {"pos": [2, 2], "kind": "Heavy", "owner": "P1"},
        ],
        ("", ATTACK_ALL),
    )


@pytest.fixture(scope="module")
def econ_set():
    """A harvesting economy that an aggressive opponent can disrupt."""
    return _mini_set(
        [
            {"pos": [0, 0], "kind": "Resource", "resources": 12},
            {"pos": [1, 1], "kind": "Worker", "owner": "P0"},
            {"pos": [2, 2], "kind": "Base", "owner": "P0"},
            {"pos": [4, 4], "kind": "Worker", "owner": "P1"},
            {"pos": [6, 6], "kind": "Base", "owner": "P1"},
        ],
        ("", ATTACK_ALL),
        size=8,
    )


class TestFeatureDistance:
    def test_identical_vectors_distance_zero(self):
        assert feature_distance((3, 2, 0, 0, 0, 1, 7), (3, 2, 0, 0, 0, 1, 7)) == 0.0

    def test_two_active_components_against_zeros(self):
        # |2-0|/2 and |5-0|/5 both contribute 1, averaged over 7 slots.
        assert feature_distance(
            (2, 0, 0, 0, 0, 0, 5), (0, 0, 0, 0, 0, 0, 0)
        ) == pytest.approx(2 / 7)

    def test_relative_difference_per_component(self):
        assert feature_distance((3,), (5,)) == pytest.approx(2 / 5)
        assert feature_distance((0,), (4,)) == pytest.approx(1.0)
        assert feature_distance((1, 1), (2, 3)) == pytest.approx(
            (1 / 2 + 2 / 3) / 2
        )

    def test_floor_of_one_guards_zero_division(self):
        assert feature_distance((0, 0), (0, 0)) == 0.0

    def test_symmetric(self):
        left, right = (4, 0, 1), (2, 3, 1)
        assert feature_distance(left, right) == feature_distance(right, left)

    def test_bounded_by_one(self):
        assert 0.0 <= feature_distance((0, 9, 0), (7, 0, 3)) <= 1.0


class TestDecisionStates:
    def test_duplicate_records_do_not_add_states(self, tiered, oset8):
        records = oset8.matches(tiered)
        once = decision_states(records)
        twice = decision_states(records + records)
        assert once == twice

    def test_first_occurrence_wins(self, tiered, oset8):
        records = oset8.matches(tiered)
        states = decision_states(records)
        first = records[0].entries[0]
        assert states[first.snapshot] == first.actions

    def test_states_cover_every_entry_snapshot(self, tiered, oset8):
        records = oset8.matches(tiered)
        states = decision_states(records)
        for record in records:
            for entry in record.entries:
                assert entry.snapshot in states


class TestActionMetric:
    def test_reflexive_on_standard_set(self, tiered, oset8):
        assert action_metric(tiered, tiered, oset8) == 1.0

    def test_vacuous_when_no_decision_states(self):
        zero = _mini_set(
            [
                {"pos": [1, 1], "kind": "Heavy", "owner": "P0"},
                {"pos": [2, 2], "kind": "Worker", "owner": "P1"},
            ],
            (ATTACK_ALL,),
            max_ticks=0,
        )
        assert action_metric(parse(ATTACK_ALL), parse(PASSIVE_ALL), zero) == 1.0

    def test_matches_brute_force_replay(self, tiered, empty_program, oset8):
        states = decision_states(oset8.matches(tiered))
        agree = 0
        for snapshot, assigned in states.items():
            replayed = resolve_joint(empty_program, restore_state(snapshot), 0)
            agree += assigned == replayed
        expected = agree / len(states)
        assert action_metric(tiered, empty_program, oset8) == pytest.approx(
            expected
        )
        assert 0.0 <= expected < 1.0

    def test_per_unit_at_least_joint(self, tiered, empty_program, oset8):
        joint = action_metric(tiered, empty_program, oset8)
        graded = action_metric(tiered, empty_program, oset8, per_unit=True)
        assert graded >= joint
        assert 0.0 <= graded <= 1.0

    def test_per_unit_reflexive(self, tiered, oset8):
        assert action_metric(tiered, tiered, oset8, per_unit=True) == 1.0

    def test_recorded_decisions_equal_replays_on_pool(self, pool16, oset8):
        """Serving ``other``'s recorded assignments changes no value: every
        pool16 pair equals a replay of ``other`` on each of π's states."""
        states = {
            ident: decision_states(oset8.matches(program))
            for ident, program in pool16
        }
        union = {snapshot for visited in states.values() for snapshot in visited}
        for other_id, other in pool16:
            replayed = {
                snapshot: resolve_joint(other, restore_state(snapshot), 0)
                for snapshot in union
            }
            for pi_id, pi in pool16:
                pairs = [
                    (assigned, replayed[snapshot])
                    for snapshot, assigned in states[pi_id].items()
                ]
                joint = sum(1.0 if a == b else 0.0 for a, b in pairs)
                graded = 0.0
                for a, b in pairs:
                    uids = set(a) | set(b)
                    if uids:
                        graded += sum(a.get(u) == b.get(u) for u in uids) / len(uids)
                    else:
                        graded += 1.0
                pair = (pi_id, other_id)
                assert action_metric(pi, other, oset8) == joint / len(pairs), pair
                assert (
                    action_metric(pi, other, oset8, per_unit=True)
                    == graded / len(pairs)
                ), pair


class TestOutcomeMetric:
    def test_mini_signatures(self, strong_set, weak_set):
        assert outcomes(strong_set, parse(ATTACK_ALL)) == (1, 1)
        assert outcomes(strong_set, parse(IDLE_ALL)) == (1, 1)
        assert outcomes(strong_set, parse(PASSIVE_ALL)) == (0, 1)
        assert outcomes(weak_set, parse(ATTACK_ALL)) == (-1, -1)

    def test_equal_signatures_score_one(self, strong_set):
        # Distinct programs, same outcomes against both opponents.
        assert outcome_metric(parse(ATTACK_ALL), parse(IDLE_ALL), strong_set) == 1.0

    def test_partial_agreement_fraction(self, strong_set):
        # (1, 1) vs (0, 1): they agree against one of the two opponents.
        assert outcome_metric(parse(ATTACK_ALL), parse(PASSIVE_ALL), strong_set) == 0.5

    def test_symmetric(self, strong_set):
        left = outcome_metric(parse(ATTACK_ALL), parse(PASSIVE_ALL), strong_set)
        right = outcome_metric(parse(PASSIVE_ALL), parse(ATTACK_ALL), strong_set)
        assert left == right

    def test_single_disagreement_on_pool(self, pool8, oset8):
        programs = dict(pool8)
        assert outcome_metric(programs["q08"], programs["q09"], oset8) == 0.9

    def test_frozen_pool_values(self, pool8, oset8):
        programs = dict(pool8)
        assert outcome_metric(programs["q02"], programs["q04"], oset8) == 0.7
        assert outcome_metric(programs["q03"], programs["q07"], oset8) == 1.0

    def test_matches_manual_signature_agreement(self, pool8, oset8):
        programs = dict(pool8)
        sig_a = outcomes(oset8, programs["q01"])
        sig_b = outcomes(oset8, programs["q05"])
        expected = sum(a == b for a, b in zip(sig_a, sig_b)) / len(sig_a)
        assert outcome_metric(programs["q01"], programs["q05"], oset8) == expected


class TestFeatureMetric:
    def test_reflexive_zero(self, tiered, oset8):
        assert feature_metric(tiered, tiered, oset8) == 0.0

    def test_mean_over_opponents(self, econ_set, empty_program):
        harvest = parse(HARVEST_ALL)
        recs_a = econ_set.matches(harvest)
        recs_b = econ_set.matches(empty_program)
        expected = sum(
            feature_distance(a.features[0], b.features[0])
            for a, b in zip(recs_a, recs_b)
        ) / len(recs_a)
        assert feature_metric(harvest, empty_program, econ_set) == pytest.approx(
            expected
        )
        assert expected > 0.0

    def test_harvest_features_differ_by_opponent(self, econ_set):
        # Unhindered, the worker empties the 12-resource node; under attack
        # it dies after banking half of it.
        records = econ_set.matches(parse(HARVEST_ALL))
        assert records[0].features[0] == (0, 0, 0, 0, 0, 0, 12)
        assert records[1].features[0] == (0, 0, 0, 0, 0, 0, 6)


class TestMeanFeatureVector:
    def test_componentwise_mean(self, econ_set):
        harvest = parse(HARVEST_ALL)
        records = econ_set.matches(harvest)
        length = len(records[0].features[0])
        expected = tuple(
            sum(record.features[0][i] for record in records) / len(records)
            for i in range(length)
        )
        assert mean_feature_vector(harvest, econ_set) == expected
        assert expected[-1] == 9.0

    def test_idle_economy_is_all_zero(self, econ_set, empty_program):
        assert mean_feature_vector(empty_program, econ_set) == (0.0,) * 7


class TestCompare:
    def test_reflexive_report(self, tiered, oset8):
        report = compare([(tiered, tiered)], oset8)[0]
        assert (report.action, report.outcome, report.feature) == (1.0, 1.0, 0.0)

    def test_as_dict_keys(self, tiered, empty_program, oset8):
        report = compare([(tiered, empty_program)], oset8)[0]
        assert set(report.as_dict()) == {"action", "outcome", "feature"}
        assert report.as_dict()["action"] == report.action

    def test_equals_the_three_metrics(self, tiered, empty_program, oset8):
        report = compare([(tiered, empty_program)], oset8)[0]
        assert report == BehaviorReport(
            action_metric(tiered, empty_program, oset8),
            outcome_metric(tiered, empty_program, oset8),
            feature_metric(tiered, empty_program, oset8),
        )


def _three_metrics(pi, other, oset, per_unit):
    """The report ``compare`` must give, from the functions it memoizes."""
    return BehaviorReport(
        action_metric(pi, other, oset, per_unit=per_unit),
        outcome_metric(pi, other, oset),
        feature_metric(pi, other, oset),
    )


def _reparsed(name):
    return [program for _, program in load_program_set(name)]


class TestCompareMemo:
    """``compare`` keeps one report per (π text, other text, per_unit) in
    its opponent set; each case starts from a set with an empty memo."""

    @pytest.fixture()
    def oset(self):
        return OpponentSet.from_file(data_path("opponents8.json"))

    def test_equals_the_three_metrics_on_pool8(self, pool8, oset):
        programs = [program for _, program in pool8]
        copies = _reparsed("pool8")
        for i, pi in enumerate(programs):
            for j in range(i, len(programs)):
                other = programs[j]
                for per_unit in (False, True):
                    # Both call orders, each checked against its own reference.
                    forward = compare([(pi, other)], oset, per_unit)[0]
                    backward = compare([(other, pi)], oset, per_unit)[0]
                    assert forward == _three_metrics(pi, other, oset, per_unit)
                    assert backward == _three_metrics(other, pi, oset, per_unit)
                    copied = [(copies[i], copies[j]), (copies[j], copies[i])]
                    assert compare(copied, oset, per_unit) == [forward, backward]
        assert len(oset.reports) == 2 * len(programs) ** 2

    def test_repeat_on_reparsed_copies_replays_nothing(
        self, pool8, oset, monkeypatch
    ):
        calls = []
        real = behavior.resolve_joint

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(behavior, "resolve_joint", counting)
        pairs = [(pi, other) for _, pi in pool8 for _, other in pool8]
        for pi, other in pairs:
            compare([(pi, other)], oset, per_unit=True)
        assert calls
        copies = _reparsed("pool8")
        calls.clear()
        for pi in copies:
            for other in copies:
                compare([(pi, other)], oset, per_unit=True)
        assert calls == []

    def test_per_unit_reports_kept_apart(self, pool8, oset):
        pi, other = next(
            (pi, other)
            for _, pi in pool8
            for _, other in pool8
            if _three_metrics(pi, other, oset, False)
            != _three_metrics(pi, other, oset, True)
        )
        joint = compare([(pi, other)], oset, per_unit=False)[0]
        graded = compare([(pi, other)], oset, per_unit=True)[0]
        assert joint != graded
        assert compare([(pi, other)], oset, per_unit=False)[0] is joint
        assert compare([(pi, other)], oset, per_unit=True)[0] is graded
        assert joint == _three_metrics(pi, other, oset, False)
        assert graded == _three_metrics(pi, other, oset, True)


    def test_threads_sharing_the_memo_agree_with_serial(self, pool8, oset):
        """More threads than cores, switching often, fill one memo: every
        report equals the serial reference and each pair is stored once."""
        programs = [program for _, program in pool8[:4]]
        keys = [
            (i, j, per_unit)
            for i in range(len(programs))
            for j in range(len(programs))
            for per_unit in (False, True)
        ]
        serial = OpponentSet.from_file(data_path("opponents8.json"))
        expected = {
            (i, j, u): _three_metrics(programs[i], programs[j], serial, u)
            for i, j, u in keys
        }
        seen = {}

        def work(seed):
            order = keys[:]
            random.Random(seed).shuffle(order)
            for i, j, u in order:
                seen[seed, i, j, u] = compare([(programs[i], programs[j])], oset, u)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6 * len(keys)
        for (_, i, j, u), report in seen.items():
            assert report == expected[i, j, u]
        assert len(oset.reports) == len(keys)


class TestOpponentSet:
    def test_from_file_manifest(self):
        oset = OpponentSet.from_file(data_path("opponents16.json"))
        assert oset.name == "standard-16"
        assert len(oset) == 10
        assert oset.seed == 11
        assert oset.max_ticks == 400
        assert all(isinstance(o, Opponent) for o in oset.opponents)

    def test_standard_sets_are_process_cached(self, oset8):
        # not cached: each load is a new set with empty caches, while the
        # session fixture stays the one warm set
        first = load_opponent_set("standard-8")
        second = load_opponent_set("standard-8")
        assert first is not second
        assert first is not oset8 and second is not oset8
        for oset in (first, second):
            assert oset._cache == {}
            assert oset.reports == {}
            assert oset.name == "standard-8"
            assert oset.seed == 23
            assert oset.max_ticks == 300

    def test_opponent_sources_parse_to_programs(self, oset16):
        for opponent in oset16.opponents:
            assert parse(opponent.source) == opponent.program

    def test_initial_state_seed_offsets(self, strong_set):
        assert strong_set.initial_state(0).seed == strong_set.seed
        assert strong_set.initial_state(3).seed == strong_set.seed + 3

    def test_match_records_are_cached(self, strong_set):
        program = parse(ATTACK_ALL)
        first = strong_set.matches(program)
        second = strong_set.matches(program)
        assert len(first) == len(strong_set)
        assert all(a is b for a, b in zip(first, second))

    def test_cache_keys_on_canonical_text(self, strong_set):
        plain = parse("for(Unit u){ u.attack(Closest) }")
        decorated = parse("for(Unit u){ u.attack(Closest); }")
        first = strong_set.matches(plain)
        second = strong_set.matches(decorated)
        assert all(a is b for a, b in zip(first, second))

    def test_signature_shape(self, strong_set):
        signature = outcomes(strong_set, parse(PASSIVE_ALL))
        assert len(signature) == len(strong_set)
        assert all(value in (-1, 0, 1) for value in signature)


class TestAdmission:
    def test_bundled_pool_has_varied_signatures(self, pool8, oset8):
        # a program that sweeps or loses the whole gauntlet carries no
        # information for the outcome metric
        for name, program in pool8:
            signature = set(outcomes(oset8, program))
            assert signature != {1} and signature != {-1}, name
