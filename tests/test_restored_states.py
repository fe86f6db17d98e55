"""The restored states that one batch of ``compare`` shares, per opponent.

Following a record and replaying a policy both evaluate on states restored
from recorded snapshots.  ``behavior._opponent`` keeps one read-only state
per distinct snapshot for the matches and replays against one opponent, so
each snapshot is restored once there; a match that departs from a record
resumes on a fresh state of its own.  ``behavior._cpu_count`` is patched to
one CPU, so the whole batch runs in this process where it can be counted.
"""
import random
import weakref
from collections import Counter

from lintscore.metrics import OpponentSet, behavior, compare
from lintscore.microlang import parse, print_program
from lintscore.resources import data_path
from lintscore.sim import DecisionEntry, engine, play_match


def fresh_set():
    return OpponentSet.from_file(data_path("opponents8.json"))


def drop_lines(program, seed, q=0.3):
    rng = random.Random(seed)
    kept = [
        line
        for line in print_program(program).splitlines()
        if not (line.strip().startswith("u.") and rng.random() < q)
    ]
    return parse("\n".join(kept))


def batch(pool8):
    """Each program against two line-drop reconstructions of itself, which
    follow its matches, depart from them and need replays."""
    programs = [program for _, program in pool8[:5]]
    return [
        (pi, drop_lines(pi, 10 * i + trial))
        for i, pi in enumerate(programs)
        for trial in range(2)
    ]


def record_restores(monkeypatch):
    """Patch every ``restore_state`` that matches and replays call. Returns
    the snapshots restored outside ``DecisionEntry.resume``, the number of
    resumes, and a weak reference to every restored state."""
    shared: Counter = Counter()
    resumes = [0]
    states = []
    resuming = []

    def recording(original):
        def restore(snapshot):
            state = original(snapshot)
            states.append(weakref.ref(state))
            if resuming:
                resumes[0] += 1
            else:
                shared[snapshot] += 1
            return state

        return restore

    resume = DecisionEntry.resume

    def resume_fresh(entry):
        resuming.append(entry)
        try:
            return resume(entry)
        finally:
            resuming.pop()

    monkeypatch.setattr(behavior, "_cpu_count", lambda: 1)
    monkeypatch.setattr(engine, "restore_state", recording(engine.restore_state))
    monkeypatch.setattr(behavior, "restore_state", recording(behavior.restore_state))
    monkeypatch.setattr(DecisionEntry, "resume", resume_fresh)
    return shared, resumes, states


def test_each_snapshot_restored_once_per_batch(monkeypatch, pool8):
    shared, resumes, states = record_restores(monkeypatch)
    oset = fresh_set()
    compare(batch(pool8), oset)
    assert resumes[0] > 0 and shared
    assert max(shared.values()) == 1
    assert len(states) == len(shared) + resumes[0]
    # a later batch shares nothing with this one
    shared.clear()
    pi = pool8[0][1]
    compare([(pi, drop_lines(pi, 99, q=0.5))], oset)
    assert max(shared.values()) == 1


def test_no_restored_state_outlives_compare(monkeypatch, pool8):
    _, _, states = record_restores(monkeypatch)
    compare(batch(pool8), fresh_set())
    assert states
    assert all(ref() is None for ref in states)


def test_resumed_states_are_not_views(pool8):
    """Matches that follow and depart from one record share ``views``; each
    view still equals its snapshot after the matches, and after mutating
    the state its entry resumes on."""
    oset = fresh_set()
    initial = oset.initial_state(0)
    opponent = oset.opponents[0].program
    views = {}
    pi = pool8[0][1]
    first = play_match(pi, opponent, initial, oset.max_ticks, views=views)
    played = [first]
    for seed in range(4):
        record = play_match(
            drop_lines(pi, seed, q=0.5),
            opponent,
            initial,
            oset.max_ticks,
            earlier=played,
            views=views,
        )
        if record is not first:
            played.append(record)
    assert len(played) > 1 and views
    for snapshot, view in views.items():
        assert view.snapshot() == snapshot
    for entry in first.entries:
        view = views.get(entry.snapshot)
        if view is None:
            continue
        state, _ = entry.resume()
        assert state is not view
        uid = next(iter(state.units))
        state.remove_unit(uid)
        state.player_resources[0] += 5
        assert view.snapshot() == entry.snapshot
