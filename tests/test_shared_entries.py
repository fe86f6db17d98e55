"""Decision entries share what they repeat.

Within one opponent's work in a ``compare`` batch, the new entries of every
match hold one object per distinct unit tuple, counter tuple and joint
assignment (its actions and their verbs), in the calling process and in
every child shard, whose pickled messages keep that sharing.  The tables
that do this live as long as that opponent's work; none is process-wide.
"""
import pytest

from lintscore.metrics import OpponentSet, behavior
from lintscore.pipeline import LineDropProvider, lint_score
from lintscore.resources import data_path
from lintscore.sim import engine, play_match, state

OPPONENTS = data_path("opponents8.json")


def joint_key(actions):
    return tuple(
        (uid, a.op, a.target, a.cell, a.unit_type, a.source)
        for uid, a in actions.items()
    )


def assert_one_object_per_value(parts):
    """``parts`` holds (value, object) pairs: equal values, one object."""
    first = {}
    for value, obj in parts:
        assert first.setdefault(value, obj) is obj


def module_tables():
    """The size of every module-level container in ``sim.state`` and
    ``sim.engine``."""
    return {
        (module.__name__, name): len(value)
        for module in (state, engine)
        for name, value in vars(module).items()
        if isinstance(value, (dict, set, list))
    }


@pytest.fixture(scope="module", params=[1, 3], ids=["1cpu", "3cpus"])
def scored(request, bundle, pool8):
    """A fresh set after one line-drop batch, the batch's programs in the
    order it played them, and the module tables before and after.  At
    three CPUs this process works opponents 0, 3, 6 and 9, and two
    children the others."""
    batches = []
    run_shards = behavior._run_shards

    def recording(oset, programs, *args):
        batches.append(programs)
        return run_shards(oset, programs, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior, "_cpu_count", lambda: request.param)
        patch.setattr(behavior, "_run_shards", recording)
        oset = OpponentSet.from_file(OPPONENTS)
        before = module_tables()
        lint_score(pool8, oset, bundle, LineDropProvider(q=0.3, seed=4), k=3)
        after = module_tables()
    [programs] = batches
    return oset, programs, (before, after)


def test_equal_parts_are_one_object_per_opponent(scored):
    oset, _, _ = scored
    shared = 0
    for played in oset._played:
        entries = list({id(e): e for r in played for e in r.entries}.values())
        units = [(t, t) for e in entries for t in e.snapshot[5]]
        counters = [(c, c) for e in entries for c in (e.spawned, e.collected)]
        joints = [(joint_key(e.actions), e.actions) for e in entries]
        for parts in (units, counters, joints):
            assert_one_object_per_value(parts)
        shared += len(units) - len({id(obj) for _, obj in units})
    assert shared > 0


def test_kept_records_equal_matches_played_alone(scored):
    """Each kept record prints as the same match does when the batch's
    matches against its opponent are played again in order, each with
    tables of its own.  A π that follows an earlier record shares that
    record's entries and so prints its verbs; the first π plays alone."""
    oset, programs, _ = scored
    for index, opponent in enumerate(oset.opponents):
        played, alone = [], {}
        for text, program in programs:
            record = play_match(
                program,
                opponent.program,
                oset.initial_state(index),
                max_ticks=oset.max_ticks,
                earlier=played,
            )
            if all(r is not record for r in played):
                played.append(record)
            alone[text] = record
        first = play_match(
            programs[0][1],
            opponent.program,
            oset.initial_state(index),
            max_ticks=oset.max_ticks,
            earlier=(),
        )
        assert alone[programs[0][0]].to_json() == first.to_json()
        for (text, at), record in oset._cache.items():
            if at == index:
                assert record.to_json() == alone[text].to_json()


def test_no_module_level_table(scored):
    """The tables live in the batch's work: no container at module level
    in ``sim.state`` or ``sim.engine`` grows while the batch plays."""
    _, _, (before, after) = scored
    assert before == after
    for module in (state, engine):
        assert not any(
            isinstance(value, engine.SharedParts) for value in vars(module).values()
        )
