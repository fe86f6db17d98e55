"""The lowering compiles the pruned body that the behaviour key prints.

``evaluator._pruned`` is the one place that drops the statements that cannot
act; ``_generate`` lowers its result and keeps no dead-code rules of its
own.  These tests pin what that relies on, for every program of the corpus:

* pruning is idempotent, so the lowering never meets a statement that a
  second pass would drop;
* a program and its pruned form generate the same source;
* no generated function is empty past its preamble: a block that emits no
  lines gets no function of its own.

The corpus: pool16 at obfuscation levels 0, 1 and 2, the opponents of
standard-8 and standard-16, the 1,000 ``random_program(random.Random(i))``
of the evaluator digest pin, and guard chains deep enough to be split into
functions of their own.
"""
import ast
import random

from lintscore.microlang import Program, parse, random_program
from lintscore.obfuscate import LEVELS, obfuscate
from lintscore.sim.evaluator import _MAX_INDENT, _generate, _pruned

RANDOM_PROGRAMS = 1000  # as in test_evaluator_digest.py

DEPTH = 3 * _MAX_INDENT
# nested guards past the split: pruning keeps every state guard, so the
# innermost ``if`` (with no else) is lowered in a function of its own
DEEP = [
    "for(Unit u){"
    + "if(u.hasNumberOfUnits(Worker,1)) then {" * DEPTH
    + "u.harvest(1)"
    + "}" * DEPTH
    + " u.idle() }",
    "for(Unit u){"
    + "if(u.hasNumberOfUnits(Worker,1)) then { u.idle() } else {" * DEPTH
    + "u.attack(Closest)"
    + "}" * DEPTH
    + " }",
    "if(u.haveQtdUnitsAttacking(1)) then {" * DEPTH
    + "for(Unit u){ u.attack(Weakest) }"
    + "}" * DEPTH,
]


def corpus(pool16, osets):
    originals = [program for _, program in pool16]
    programs = originals + [
        obfuscate(program, level) for program in originals for level in LEVELS
    ]
    for oset in osets:
        programs += [opponent.program for opponent in oset.opponents]
    programs += [random_program(random.Random(i)) for i in range(RANDOM_PROGRAMS)]
    return programs + [parse(text) for text in DEEP]


def pruned(program):
    return Program(tuple(_pruned(program.body, None)))


# the statements every generated function starts with: an empty program's
# ``run`` holds them and ``pass``
PREAMBLE = len(ast.parse(_generate(Program(()))[0]).body[0].body) - 1


def functions(source):
    """The generated functions' bodies past the preamble, by name."""
    return {fn.name: fn.body[PREAMBLE:] for fn in ast.parse(source).body}


def test_pruning_is_idempotent(pool16, oset8, oset16):
    for program in corpus(pool16, (oset8, oset16)):
        once = pruned(program)
        assert pruned(once) == once


def test_program_and_pruned_form_generate_one_source(pool16, oset8, oset16):
    for program in corpus(pool16, (oset8, oset16)):
        assert _generate(pruned(program))[0] == _generate(program)[0]


def test_no_generated_function_is_empty(pool16, oset8, oset16):
    for program in corpus(pool16, (oset8, oset16)):
        bodies = functions(_generate(program)[0])
        for name, body in bodies.items():
            assert body, name
            if name != "run" or pruned(program).body:
                assert not all(isinstance(stmt, ast.Pass) for stmt in body), name


def test_deep_guard_chains_reach_the_split():
    for text in DEEP:
        assert len(functions(_generate(parse(text))[0])) > 1, text
