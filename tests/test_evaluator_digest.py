"""Differential gate for the policy evaluator.

One SHA-256 digest covers ``resolve_joint`` output on a fixed corpus of
recorded decision states. The pinned value was computed with the
statement-walking interpreter, the first evaluator; every later one,
including the generated function per (program, stat table), must reproduce
it.

The corpus:

* on each of standard-8 and standard-16, every pool16 program and every
  bundled opponent program, evaluated for players 0 and 1 on every decision
  state its own matches recorded there;
* 1,000 ``random_program(random.Random(i))``: program ``i`` is evaluated
  for players 0 and 1 on every 1,000th state of the union of those states
  over both maps, starting at state ``i``, so each recorded state is seen
  by one random program.

Actions are hashed through ``Action.to_json()``, which includes the
originating verb that ``Action`` equality ignores.
"""
import hashlib
import json
import random

from lintscore.metrics import decision_states
from lintscore.microlang import random_program
from lintscore.sim import resolve_joint, restore_state

RANDOM_PROGRAMS = 1000
EXPECTED = "bc0191ab6d1775e5eab08e8ddbdfadee48066f502f5b18aa108d9dd0a16a13ac"


def _feed(digest, program, state, player):
    joint = resolve_joint(program, state, player)
    row = [[uid, joint[uid].to_json()] for uid in sorted(joint)]
    digest.update(json.dumps(row, separators=(",", ":")).encode())
    digest.update(b"\n")


def evaluator_digest(pool, osets):
    digest = hashlib.sha256()
    union: dict[tuple, None] = {}
    for oset in osets:
        programs = [program for _, program in pool]
        programs += [opponent.program for opponent in oset.opponents]
        for program in programs:
            for snapshot in decision_states(oset.matches(program)):
                union.setdefault(snapshot, None)
                state = restore_state(snapshot)
                for player in (0, 1):
                    _feed(digest, program, state, player)
    snapshots = list(union)
    for i in range(RANDOM_PROGRAMS):
        program = random_program(random.Random(i))
        for snapshot in snapshots[i::RANDOM_PROGRAMS]:
            state = restore_state(snapshot)
            for player in (0, 1):
                _feed(digest, program, state, player)
    return digest.hexdigest()


def test_resolve_joint_digest_is_pinned(pool16, oset8, oset16):
    assert evaluator_digest(pool16, (oset8, oset16)) == EXPECTED
