"""Differential gate for behaviour keys.

An opponent set keys matches and pair reports by the printed behaviour form
of a program (``OpponentSet._key_text``), so programs with one key share one
record per opponent: the record the first of them played.  That is sound
when every program with the key resolves every state of that record as the
record says; by induction over ticks, each of them would then have played
the same match.  These tests check it for every program in a key group,
and for the behaviour form itself, on every decision state of the group's
records.

The corpus: pool8 and pool16 at obfuscation levels 0, 1 and 2, and the
bundled opponents, on standard-8 and standard-16; and the 1,000
``random_program(random.Random(i))`` of the evaluator digest pin, on
standard-8.
"""
import random

import pytest

from lintscore.harness import load_program_set
from lintscore.metrics import OpponentSet, decision_states
from lintscore.microlang import print_program, random_program
from lintscore.obfuscate import LEVELS, obfuscate
from lintscore.resources import data_path
from lintscore.sim import behaviour_form, resolve_joint, restore_state

RANDOM_PROGRAMS = 1000  # as in test_evaluator_digest.py


def key(program):
    return print_program(behaviour_form(program))


def _pool_programs():
    return [
        program
        for name in ("pool8", "pool16")
        for _, program in load_program_set(name)
    ]


def _check_groups(programs, oset):
    """Group ``programs`` by ``oset``'s key, with the group's behaviour
    form, and check each group on its records' states.  Returns the groups'
    sizes (programs of one text count once, the form not at all) and every
    state checked, in order."""
    groups: dict[str, dict] = {}
    for program in programs:
        text = oset._key_text(program)
        assert text == key(program)
        groups.setdefault(text, {})[program] = None
    union: dict[tuple, None] = {}
    for members in groups.values():
        records = oset.matches(next(iter(members)))
        form = behaviour_form(next(iter(members)))
        for member in [*members, form]:
            assert all(a is b for a, b in zip(oset.matches(member), records))
        for snapshot, recorded in decision_states(records).items():
            union.setdefault(snapshot, None)
            state = restore_state(snapshot)
            for member in [*members, form]:
                assert resolve_joint(member, state, 0) == recorded
    return sorted(len(members) for members in groups.values()), list(union)


@pytest.mark.parametrize("gauntlet", ["oset8", "oset16"])
def test_equal_keys_resolve_alike_on_pools(gauntlet, request):
    oset = request.getfixturevalue(gauntlet)
    originals = _pool_programs()
    programs = originals + [
        obfuscate(program, level) for program in originals for level in LEVELS
    ]
    programs += [opponent.program for opponent in oset.opponents]
    sizes, _ = _check_groups(programs, oset)
    assert sizes[-1] > len(LEVELS)


def test_equal_keys_resolve_alike_on_random_programs():
    # a set of its own: these matches are not kept for other tests
    oset = OpponentSet.from_file(data_path("opponents8.json"))
    programs = [random_program(random.Random(i)) for i in range(RANDOM_PROGRAMS)]
    sizes, snapshots = _check_groups(programs, oset)
    # many random programs differ only in statements that cannot act
    assert len(sizes) < RANDOM_PROGRAMS // 2
    assert sizes[-1] > 10
    # a form resolves alike on states its program never meets, too, as a
    # replay asks it to: program i on every 1,000th state from state i
    for i, program in enumerate(programs):
        form = behaviour_form(program)
        for snapshot in snapshots[i::RANDOM_PROGRAMS]:
            state = restore_state(snapshot)
            for player in (0, 1):
                assert resolve_joint(form, state, player) == resolve_joint(
                    program, state, player
                )


def test_obfuscated_copies_share_their_original_key():
    for program in _pool_programs():
        for level in LEVELS:
            assert key(obfuscate(program, level)) == key(program)


def test_pool_originals_keep_distinct_keys():
    texts = {print_program(program): program for program in _pool_programs()}
    assert len({key(program) for program in texts.values()}) == len(texts)


def test_behaviour_form_is_a_fixed_point():
    for i in range(RANDOM_PROGRAMS):
        form = behaviour_form(random_program(random.Random(i)))
        assert behaviour_form(form) == form
