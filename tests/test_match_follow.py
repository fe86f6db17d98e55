"""Following earlier match records: a match played with ``earlier`` records
must equal the same match simulated from scratch.

``OpponentSet.matches`` passes every distinct record it has played against
an opponent as ``earlier``; ``play_match`` follows one while the new match
repeats it, resumes simulation where it departs, and returns the record
itself when it repeats to the end.  Each program family below is played
through a fresh set, in order, so later programs follow earlier ones, and
every record is checked against ``play_match(..., earlier=())``.
"""
import random

import pytest

from lintscore.metrics import OpponentSet
from lintscore.microlang import parse, print_program, random_program
from lintscore.obfuscate import obfuscate
from lintscore.resources import data_path
from lintscore.sim import (
    Action,
    DecisionEntry,
    GameState,
    MatchRecord,
    play_match,
    state_from_map_dict,
)


def fresh_set() -> OpponentSet:
    return OpponentSet.from_file(data_path("opponents8.json"))


def pool16():
    from lintscore.harness import load_program_set

    return [program for _, program in load_program_set("pool16")]


def drop_lines(program, seed: int, q: float = 0.2):
    """A line-drop reconstruction: each command line is dropped with
    probability ``q``, as the line-drop mock provider does."""
    rng = random.Random(seed)
    kept = [
        line
        for line in print_program(program).splitlines()
        if not (line.strip().startswith("u.") and rng.random() < q)
    ]
    return parse("\n".join(kept))


def assert_same_match(got, want):
    assert got.outcome == want.outcome
    assert got.ticks == want.ticks
    assert got.fixed_point == want.fixed_point
    assert got.features == want.features
    assert got.dropped == want.dropped
    assert len(got.entries) == len(want.entries)
    for entry, expected in zip(got.entries, want.entries):
        assert entry.snapshot == expected.snapshot
        assert entry.actions == expected.actions


def check_family(programs) -> OpponentSet:
    """Play ``programs`` through one fresh set and compare every record with
    a fresh simulation; returns the set."""
    oset = fresh_set()
    for program in programs:
        for index, record in enumerate(oset.matches(program)):
            want = play_match(
                program,
                oset.opponents[index].program,
                oset.initial_state(index),
                max_ticks=oset.max_ticks,
                earlier=(),
            )
            assert_same_match(record, want)
    return oset


class TestGauntletFamilies:
    def test_pool_line_drop_and_obfuscation(self):
        originals = pool16()
        programs = list(originals)
        for seed in (1, 2, 3):
            programs += [
                drop_lines(p, seed * 100 + i) for i, p in enumerate(originals)
            ]
        for level in (1, 2):
            programs += [obfuscate(p, level) for p in originals]
        oset = check_family(programs)
        # Obfuscation keeps behaviour, so those matches are the originals'.
        for program in originals:
            for level in (1, 2):
                obfuscated = oset.matches(obfuscate(program, level))
                assert all(
                    a is b for a, b in zip(obfuscated, oset.matches(program))
                )

    def test_random_programs(self):
        check_family([random_program(random.Random(i)) for i in range(200)])


def pool_program(name: str):
    return parse(data_path("policies", "pool16", f"{name}.mrl").read_text())


def gauntlet_match(program: str, opponent: str, **limits):
    """(p0, p1, initial, limits): a pool16 program against a standard-8
    opponent from that opponent's initial state."""
    oset = fresh_set()
    index = int(opponent[1:]) - 1
    initial = state_from_map_dict(oset.map_data, oset.seed + index)
    limits = {"max_ticks": oset.max_ticks, **limits}
    return pool_program(program), oset.opponents[index].program, initial, limits


# A worker that walks towards the enemy base and steps back towards its own
# once within three cells: the state at tick 4 repeats the one at tick 2.
SHUTTLE = """for(Unit u){
    if(u.hasUnitWithinDistanceFromOpponent(3)){
        u.moveToUnit(Ally,Closest)
    } else {
        u.moveToUnit(Enemy,Closest)
    }
}"""


def shuttle_match():
    initial = GameState(8, 8)
    initial.add_unit("Base", 0, 0, 0)
    initial.add_unit("Worker", 0, 1, 1)
    initial.add_unit("Base", 1, 7, 7)
    return parse(SHUTTLE), parse(""), initial, {"max_ticks": 50}


def departing_at(record: MatchRecord, index: int) -> MatchRecord:
    """A record equal to ``record`` up to its decision ``index``, where
    player 0 did something else."""
    entries = list(record.entries)
    entry = entries[index]
    entries[index] = DecisionEntry(
        entry.snapshot,
        {**entry.actions, -1: Action("stand")},
        entry.next_uid,
        entry.spawned,
        entry.collected,
        entry.dropped,
    )
    return MatchRecord(
        record.outcome,
        record.fixed_point,
        entries,
        record.features,
        record.dropped,
    )


def ending(record: MatchRecord) -> str:
    if record.fixed_point:
        return "fixed point"
    return "elimination" if record.outcome else "tick limit"


# name -> (match, ending). Between them the cases spawn, harvest, drop
# actions and kill the newest unit before the next spawn, so a resumed match
# depends on every counter and on the unit-id counter. The shuttle repeats a
# state from two ticks back.
CASES = {
    "elimination": (lambda: gauntlet_match("p08", "o03"), "elimination"),
    "dropped-actions": (lambda: gauntlet_match("p13", "o10"), "elimination"),
    "fixed-point": (lambda: gauntlet_match("p05", "o05"), "fixed point"),
    "fixed-point-cycle": (shuttle_match, "fixed point"),
    "tick-limit": (
        lambda: gauntlet_match("p13", "o04", max_ticks=25), "tick limit"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_resume_at_every_decision(case):
    """Departing from a record at any decision, the first one and the last
    one included, resumes the match exactly and shares the entries before
    it; following the record to its end returns the record."""
    build, expected = CASES[case]
    p0, p1, initial, limits = build()
    want = play_match(p0, p1, initial, **limits)
    assert ending(want) == expected
    assert play_match(p0, p1, initial, earlier=[want], **limits) is want
    for index in range(len(want.entries)):
        earlier = departing_at(want, index)
        got = play_match(p0, p1, initial, earlier=[earlier], **limits)
        assert_same_match(got, want)
        assert all(a is b for a, b in zip(got.entries[:index], earlier.entries))
        assert got.entries[index] is not earlier.entries[index]


def test_follows_the_record_it_repeats_among_several():
    p0, p1, initial, limits = gauntlet_match("p13", "o10")
    want = play_match(p0, p1, initial, **limits)
    others = [
        play_match(pool_program(name), p1, initial, **limits)
        for name in ("p01", "p05", "p08")
    ]
    early = departing_at(want, 0)
    late = departing_at(want, len(want.entries) - 1)
    got = play_match(p0, p1, initial, earlier=others + [early, late], **limits)
    assert_same_match(got, want)
    assert all(a is b for a, b in zip(got.entries[:-1], late.entries))
    assert play_match(p0, p1, initial, earlier=others + [early, want], **limits) is want


def test_identical_behaviour_gets_the_earlier_record_back():
    """p01's first loop assigns every unit, so a loop appended after it
    never acts: the longer program's matches are p01's record objects."""
    oset = fresh_set()
    original = pool_program("p01")
    padded = parse(print_program(original) + "for(Unit u){\n    u.moveAway()\n}\n")
    assert print_program(padded) != print_program(original)
    first = oset.matches(original)
    second = oset.matches(padded)
    assert all(a is b for a, b in zip(first, second))
