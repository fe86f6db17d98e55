"""The read-only states that one batch of ``compare`` shares, per opponent.

Following a record and replaying a policy both evaluate on read-only views
of recorded snapshots (``StateView``).  ``behavior._opponent`` makes one
``SharedParts`` for the matches and replays against one opponent, which
holds one view per distinct snapshot there; its views share one ``Unit``
per distinct unit tuple and one tuple per cell.  A match that departs from
a record resumes on a fresh state of its own, and ``restore_state`` makes
only those.  ``behavior._cpu_count`` is patched to one CPU, so the whole
batch runs in this process where it can be counted.
"""
import random
import weakref
from collections import Counter

from lintscore.metrics import OpponentSet, behavior, compare
from lintscore.microlang import parse, print_program
from lintscore.resources import data_path
from lintscore.sim import (
    DecisionEntry,
    GameState,
    SharedParts,
    StateView,
    engine,
    play_match,
)


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


class _Recorded(StateView):
    __slots__ = ("__weakref__",)


def record_states(monkeypatch):
    """Record every view that matches and replays make, and count the
    states that ``restore_state`` makes inside and outside
    ``DecisionEntry.resume``.  Returns (snapshot, weak reference to its
    view) per view and the counts (inside, outside)."""
    views = []
    restores = Counter()
    resuming = []

    def view(snapshot, units, cells):
        made = _Recorded(snapshot, units, cells)
        views.append((snapshot, weakref.ref(made)))
        return made

    def recording(original):
        def restore(snapshot):
            restores["inside" if resuming else "outside"] += 1
            return original(snapshot)

        return restore

    resume = DecisionEntry.resume

    def resume_fresh(entry):
        resuming.append(entry)
        try:
            return resume(entry)
        finally:
            resuming.pop()

    monkeypatch.setattr(behavior, "_cpu_count", lambda: 1)
    monkeypatch.setattr(engine, "StateView", view)
    monkeypatch.setattr(engine, "restore_state", recording(engine.restore_state))
    monkeypatch.setattr(behavior, "restore_state", recording(behavior.restore_state))
    monkeypatch.setattr(DecisionEntry, "resume", resume_fresh)
    return views, restores


def held(view):
    """The unit tuples of a view's split, and its occupancy."""
    sides = view.sides()
    units = sorted(
        unit.as_tuple() for unit in [*sides.units[0], *sides.units[1], *sides.nodes]
    )
    return units, dict(view.occupancy)


def expected(snapshot):
    """What :func:`held` returns for a view of ``snapshot``."""
    units = sorted(
        fields
        for fields in snapshot[5]
        if fields[2] is not None or (fields[1] == "Resource" and fields[7] > 0)
    )
    return units, {(fields[3], fields[4]): fields[0] for fields in snapshot[5]}


def test_each_snapshot_restored_once_per_batch(monkeypatch, pool8):
    views, restores = record_states(monkeypatch)
    oset = fresh_set()
    compare(batch(pool8), oset)
    made = Counter(snapshot for snapshot, _ in views)
    assert restores["inside"] > 0 and made
    assert max(made.values()) == 1
    # restore_state makes the states that matches resume on, and no other
    assert restores["outside"] == 0
    # a later batch shares nothing with this one
    views.clear()
    pi = pool8[0][1]
    compare([(pi, drop_lines(pi, 99, q=0.5))], oset)
    assert max(Counter(snapshot for snapshot, _ in views).values()) == 1


def test_no_restored_state_outlives_compare(monkeypatch, pool8):
    views, _ = record_states(monkeypatch)
    compare(batch(pool8), fresh_set())
    assert views
    assert all(ref() is None for _, ref in views)


def test_views_share_one_unit_per_unit_tuple(monkeypatch, pool8):
    """Within one opponent's work, equal unit tuples are one ``Unit`` and
    equal cells one tuple, across all its views; each view holds what its
    snapshot says."""
    monkeypatch.setattr(behavior, "_cpu_count", lambda: 1)
    kept = []
    view = engine.StateView

    def keeping(snapshot, units, cells):
        kept.append(view(snapshot, units, cells))
        return kept[-1]

    monkeypatch.setattr(engine, "StateView", keeping)
    compare(batch(pool8), fresh_set())
    # a snapshot's seed is its opponent's
    by_opponent: dict[int, list] = {}
    for made in kept:
        by_opponent.setdefault(made.seed, []).append(made)
    assert len(by_opponent) > 1
    units, distinct = 0, 0
    for views in by_opponent.values():
        first_unit, first_cell = {}, {}
        for made in views:
            assert held(made) == expected(GameState.snapshot(made))
            sides = made.sides()
            for unit in [*sides.units[0], *sides.units[1], *sides.nodes]:
                assert first_unit.setdefault(unit.as_tuple(), unit) is unit
                units += 1
            for cell in made.occupancy:
                assert first_cell.setdefault(cell, cell) is cell
        distinct += len(first_unit)
    assert units > 2 * distinct


def test_resumed_states_are_not_views(pool8):
    """Matches that follow and depart from one record share one
    ``SharedParts``; each view holds its snapshot after the matches, the
    state an entry resumes on shares no object with any view, and changing
    that state leaves every view as it was."""
    oset = fresh_set()
    initial = oset.initial_state(0)
    opponent = oset.opponents[0].program
    shared = SharedParts()
    pi = pool8[0][1]
    first = play_match(pi, opponent, initial, oset.max_ticks, shared=shared)
    played = [first]
    for seed in range(4):
        record = play_match(
            drop_lines(pi, seed, q=0.5),
            opponent,
            initial,
            oset.max_ticks,
            earlier=played,
            shared=shared,
        )
        if record is not first:
            played.append(record)
    views = shared.views
    assert len(played) > 1 and views
    for snapshot, view in views.items():
        assert GameState.snapshot(view) == snapshot
        assert held(view) == expected(snapshot)
    viewed = set()
    for view in views.values():
        sides = view.sides()
        viewed.update(map(id, [view.occupancy, *view.occupancy, sides.nodes]))
        viewed.update(map(id, sides.nodes))
        for side in (0, 1):
            viewed.update(map(id, [sides.units[side], sides.counts[side]]))
            viewed.update(map(id, sides.units[side]))
    resumed = 0
    for entry in first.entries:
        if entry.snapshot not in views:
            continue
        state, _ = entry.resume()
        sides = state.sides()
        mine = [state.units, state.occupancy, *state.units.values(), *state.occupancy]
        mine += [*sides.units, *sides.counts, sides.nodes]
        assert not viewed & set(map(id, mine))
        unit = next(iter(state.units.values()))
        unit.hp -= 1
        unit.carried += 1
        state.remove_unit(unit.uid)
        state.player_resources[0] += 5
        resumed += 1
    assert resumed
    for snapshot, view in views.items():
        assert held(view) == expected(snapshot)
        assert view.player_resources == snapshot[3:5]
