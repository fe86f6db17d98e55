"""A program keeps what is computed from it.

``Program.derived`` holds a program's printed text (``print_program``), its
behaviour key (``sim.behaviour_key``) and its lowered function, for as long
as the program lives.  These tests pin that the memo is invisible to
equality, hashing and repr, that it gives what a fresh computation gives,
and that it lives and dies with its program: keying and lowering register
no finalizer, and a lowered function is freed with its program.
"""
import dataclasses
import gc
import random
import weakref

from lintscore.microlang import Program, parse, print_program, random_program
from lintscore.obfuscate import LEVELS, obfuscate
from lintscore.sim import behaviour_form, behaviour_key, resolve_joint

RANDOM_PROGRAMS = 200

DEEP = (
    "for(Unit u){"
    + "if(u.hasNumberOfUnits(Worker,1)) then {" * 40
    + "u.harvest(1)"
    + "}" * 40
    + " }"
)


def _parsed(count):
    return [
        parse(print_program(random_program(random.Random(i))))
        for i in range(count)
    ]


def test_keying_and_lowering_register_no_finalizer(oset8):
    programs = _parsed(50)
    state = oset8.initial_state(0)
    gc.collect()
    before = len(weakref.finalize._registry)
    for program in programs:
        oset8.pair_key(program, program, False)
        resolve_joint(program, state, 0)
    assert len(weakref.finalize._registry) == before


def test_memo_changes_no_equality_hash_or_repr(tiered, oset8):
    fresh = Program(tiered.body)
    assert fresh.derived == {}
    print_program(tiered)
    behaviour_key(tiered)
    resolve_joint(tiered, oset8.initial_state(0), 0)
    assert set(tiered.derived) == {"text", "key", "run"}
    assert tiered == fresh
    assert hash(tiered) == hash(fresh)
    assert repr(tiered) == repr(fresh)
    assert "derived" not in repr(tiered)
    copy = dataclasses.replace(tiered)
    assert copy == tiered
    assert copy.derived == {}


def test_behaviour_key_is_the_printed_behaviour_form(pool8, pool16):
    originals = [program for pool in (pool8, pool16) for _, program in pool]
    programs = originals + [
        obfuscate(program, level)
        for level in LEVELS
        for program in originals
    ]
    programs += [random_program(random.Random(i)) for i in range(RANDOM_PROGRAMS)]
    for program in programs:
        expected = print_program(behaviour_form(program))
        assert behaviour_key(program) == expected
        assert behaviour_key(program) == expected  # the memo's answer
        assert print_program(program) == print_program(dataclasses.replace(program))


def test_lowered_function_dies_with_its_program(oset8):
    state = oset8.initial_state(0)
    for source in (print_program(_parsed(1)[0]), DEEP):
        program = parse(source)
        resolve_joint(program, state, 0)
        run = weakref.ref(program.derived["run"])
        assert run() is not None
        del program
        assert run() is None
