"""The three behavior-similarity measures between two policies.

All comparisons run against a fixed opponent set:

* action: agreement of per-decision-state joint assignments, over the union
  of decision states visited by the first policy's matches;
* outcome: agreement of win/draw/loss signatures;
* feature: normalized distance between per-match production/harvest count
  vectors (this one is a distance: 0 means identical).

Each measure is a sum over opponents of one per-opponent function, so
:func:`compare` can measure a batch of pairs split by opponent across
forked processes and still sum exactly what one process would.
"""
from __future__ import annotations

import gc
import os
import signal
import threading
import traceback
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from typing import BinaryIO

from ..microlang import Program
from ..sim import GameState, MatchRecord, resolve_joint, restore_state
from .opponents import OpponentSet


@dataclass(frozen=True)
class BehaviorReport:
    action: float
    outcome: float
    feature: float

    def as_dict(self) -> dict:
        return asdict(self)


def decision_states(records: list[MatchRecord]) -> dict[tuple, dict]:
    """Union of decision states across matches, deduplicated by snapshot.

    Policy evaluation is a pure function of the snapshot, so the first
    recorded assignment map for a snapshot is the only possible one.
    """
    states: dict[tuple, dict] = {}
    for record in records:
        for entry in record.entries:
            if entry.snapshot not in states:
                states[entry.snapshot] = entry.actions
    return states


def _agreements(
    mine: MatchRecord,
    theirs: MatchRecord,
    other: Program,
    per_unit: bool,
    views: dict[tuple, GameState],
) -> list[float]:
    """Per decision state of ``mine``, in order, how far ``other`` issues
    the same resolved joint assignment there (``per_unit`` grades each unit
    separately); ``theirs`` is ``other``'s match against the same opponent.

    ``other`` is only replayed on states that ``theirs`` never visited:
    where it did, its recorded assignment is the replay, because evaluation
    is a pure function of the snapshot.  Snapshots carry the opponent's
    seed, so no other opponent's match visits them, and a replay reads the
    state ``views`` holds for its snapshot, restoring and adding it when it
    is missing.
    """
    recorded = decision_states([theirs])
    values = []
    for snapshot, assigned in decision_states([mine]).items():
        replayed = recorded.get(snapshot)
        if replayed is None:
            state = views.get(snapshot)
            if state is None:
                state = views[snapshot] = restore_state(snapshot)
            replayed = resolve_joint(other, state, 0)
        if not per_unit:
            values.append(1.0 if assigned == replayed else 0.0)
            continue
        uids = set(assigned) | set(replayed)
        if not uids:
            values.append(1.0)
            continue
        agree = sum(1 for uid in uids if assigned.get(uid) == replayed.get(uid))
        values.append(agree / len(uids))
    return values


def _action(agreements: Iterable[list[float]]) -> float:
    """Mean over the states of every opponent, in opponent order."""
    total, states = 0.0, 0
    for values in agreements:
        for value in values:
            total += value
        states += len(values)
    return total / states if states else 1.0


def _outcome(same: list[bool]) -> float:
    return sum(1 for s in same if s) / len(same)


def _feature(distances: list[float]) -> float:
    return sum(distances) / len(distances)


def _parts(
    mine: MatchRecord,
    theirs: MatchRecord,
    other: Program,
    per_unit: bool,
    views: dict[tuple, GameState],
) -> tuple[list[float], bool, float]:
    """One opponent's share of all three measures."""
    return (
        _agreements(mine, theirs, other, per_unit, views),
        mine.outcome == theirs.outcome,
        feature_distance(mine.features[0], theirs.features[0]),
    )


def action_metric(
    pi: Program, other: Program, oset: OpponentSet, per_unit: bool = False
) -> float:
    """Fraction of π's decision states where both policies issue the same
    resolved joint assignment (``per_unit`` grades each unit separately).

    A policy visiting no decision states has nothing to disagree on: 1.0.
    """
    return _action(
        _agreements(mine, theirs, other, per_unit, {})
        for mine, theirs in zip(oset.matches(pi), oset.matches(other))
    )


def outcome_metric(pi: Program, other: Program, oset: OpponentSet) -> float:
    """Fraction of opponents against which both policies end the same way."""
    return _outcome(
        [a.outcome == b.outcome for a, b in zip(oset.matches(pi), oset.matches(other))]
    )


def feature_distance(left: tuple, right: tuple) -> float:
    """Mean componentwise relative difference between two count vectors."""
    return sum(
        abs(a - b) / max(a, b, 1) for a, b in zip(left, right)
    ) / len(left)


def feature_metric(pi: Program, other: Program, oset: OpponentSet) -> float:
    """Mean per-opponent feature distance; 0 for identical behavior."""
    return _feature(
        [
            feature_distance(a.features[0], b.features[0])
            for a, b in zip(oset.matches(pi), oset.matches(other))
        ]
    )


def mean_feature_vector(pi: Program, oset: OpponentSet) -> tuple[float, ...]:
    """Componentwise mean of a policy's per-match feature vectors."""
    records = oset.matches(pi)
    length = len(records[0].features[0])
    sums = [0.0] * length
    for record in records:
        for i, value in enumerate(record.features[0]):
            sums[i] += value
    return tuple(s / len(records) for s in sums)


class ShardError(RuntimeError):
    """A forked shard of :func:`compare` failed; ``child_traceback``
    is the traceback it printed, or ``None`` when it died without one."""

    def __init__(self, message: str, child_traceback: str | None = None):
        if child_traceback is not None:
            message = f"{message}\n{child_traceback}"
        super().__init__(message)
        self.child_traceback = child_traceback


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def compare(
    pairs: list[tuple[Program, Program]],
    oset: OpponentSet,
    per_unit: bool = False,
) -> list[BehaviorReport]:
    """The three measures of each ``other`` against its π, in pair order.

    A report is a pure function of both canonical texts and ``per_unit``,
    so ``oset`` keeps it and a repeat pair is served without measuring.
    The rest are measured in one batch, split by opponent over every CPU
    this process may run on: opponent ``i`` goes to shard ``i % n``, the
    calling process works shard 0 and a forked child each other one.  Every
    opponent plays the same matches in the same order as one process would
    (each pair's π, then its other, first occurrences only), and the parts
    are summed in opponent and state order, so the reports and what
    ``oset`` keeps are identical at any CPU count.  No process is started
    with one CPU, with nothing to measure or while other threads run.
    Threads that share ``oset`` measure one batch at a time.
    """
    keys = [oset.pair_key(pi, other, per_unit) for pi, other in pairs]
    with oset.lock:
        todo: dict[tuple[str, str, bool], tuple[Program, Program]] = {}
        for key, pair in zip(keys, pairs):
            if key not in oset.reports:
                todo.setdefault(key, pair)
        if todo:
            _measure(todo, oset, per_unit)
        return [oset.reports[key] for key in keys]


# per pair: (π's position, other's position, other) among the batch programs
_Jobs = list[tuple[int, int, Program]]


def _measure(
    todo: dict[tuple[str, str, bool], tuple[Program, Program]],
    oset: OpponentSet,
    per_unit: bool,
) -> None:
    """Measure the pairs of ``todo`` and keep their reports in ``oset``."""
    position: dict[str, int] = {}
    programs: list[tuple[str, Program]] = []
    for (pi_text, other_text, _), pair in todo.items():
        for text, program in zip((pi_text, other_text), pair):
            if text not in position:
                position[text] = len(programs)
                programs.append((text, program))
    jobs = [(position[a], position[b], pair[1]) for (a, b, _), pair in todo.items()]

    # a forked child runs only the calling thread, and would inherit held
    # any lock another thread holds: with other threads, one shard
    shards = min(_cpu_count(), len(oset)) if threading.active_count() == 1 else 1
    results = _run_shards(oset, programs, jobs, per_unit, shards)
    oset.store(programs, [(new, records) for new, records, _ in results])
    for p, key in enumerate(todo):
        parts = [result[2][p] for result in results]
        oset.reports[key] = BehaviorReport(
            action=_action(values for values, _, _ in parts),
            outcome=_outcome([same for _, same, _ in parts]),
            feature=_feature([distance for _, _, distance in parts]),
        )


def _opponent(
    oset: OpponentSet,
    index: int,
    programs: list[tuple[str, Program]],
    jobs: _Jobs,
    per_unit: bool,
) -> tuple[list[MatchRecord], list[MatchRecord], list[tuple]]:
    """Play the batch against opponent ``index``; each pair's parts there.

    The matches and replays share one read-only state per distinct snapshot
    they restore, kept only while this opponent's work lasts."""
    views: dict[tuple, GameState] = {}
    new, records = oset.play(index, programs, views)
    parts = [
        _parts(records[a], records[b], other, per_unit, views)
        for a, b, other in jobs
    ]
    return new, records, parts


def _run_shards(
    oset: OpponentSet,
    programs: list[tuple[str, Program]],
    jobs: _Jobs,
    per_unit: bool,
    shards: int,
) -> list[tuple[list[MatchRecord], list[MatchRecord], list[tuple]]]:
    """:func:`_opponent` for every opponent, in opponent order."""
    results: list = [None] * len(oset)

    def work(shard: int) -> list[int]:
        return list(range(shard, len(oset), shards))

    children = []
    try:
        for shard in range(1, shards):
            children.append(_fork(oset, work(shard), programs, jobs, per_unit))
        for index in work(0):
            results[index] = _opponent(oset, index, programs, jobs, per_unit)
        for shard, (pid, source) in enumerate(children, 1):
            for index in work(shard):
                results[index] = _receive(source, oset, index, pid)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, source in children:
            source.close()
            os.waitpid(pid, 0)
    return results


def _fork(
    oset: OpponentSet,
    indices: list[int],
    programs: list[tuple[str, Program]],
    jobs: _Jobs,
    per_unit: bool,
) -> tuple[int, BinaryIO]:
    """Fork a child that works ``indices`` and sends one pickled message per
    opponent, ``(None, (packed result, parts))``, or ``(traceback, None)``
    when it fails.  Returns its pid and the read end of its pipe."""
    # imported where a batch forks, not with the module: it would add a few
    # milliseconds to the start-up of every run
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        with os.fdopen(write, "wb") as sink:
            try:
                messages = []
                for index in indices:
                    new, records, parts = _opponent(
                        oset, index, programs, jobs, per_unit
                    )
                    messages.append((oset.pack(index, new, records), parts))
                for message in messages:
                    sink.write(pickle.dumps((None, message), pickle.HIGHEST_PROTOCOL))
                status = 0
            except BaseException:
                sink.write(pickle.dumps((traceback.format_exc(), None)))
                raise
    finally:
        os._exit(status)


def _receive(source: BinaryIO, oset: OpponentSet, index: int, pid: int) -> tuple:
    """Opponent ``index``'s result: the next message of child ``pid``."""
    import pickle  # see _fork

    # a message is many new objects and no cycles: collections during the
    # load would only scan them again and again
    collecting = gc.isenabled()
    gc.disable()
    try:
        failure, message = pickle.load(source)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise ShardError(f"shard process {pid} sent no result: {exc!r}") from exc
    finally:
        if collecting:
            gc.enable()
    if failure is not None:
        raise ShardError(f"shard process {pid} failed", failure)
    packed, parts = message
    new, records = oset.unpack(index, packed)
    return new, records, parts
