"""Opponent sets: the fixed evaluation gauntlet for behavior comparison."""
from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..microlang import ParseError, Program, parse
# bound here, though keys are printed in sim, for tools that wrap this
# module's names from outside (the benchmark's per-layer tracer)
from ..microlang import print_program  # noqa: F401
from ..resources import ConfigError, read_json, read_text
from ..sim import (
    GameState,
    MatchRecord,
    SharedParts,
    behaviour_key,
    play_match,
    state_from_map_dict,
)

if TYPE_CHECKING:
    from .behavior import BehaviorReport


# the keys an opponent-set descriptor may have, and their JSON types
_DESCRIPTOR_KEYS = {
    "name": str,
    "map": str,
    "programs": list,
    "seed": int,
    "max_ticks": int,
}


@dataclass(frozen=True)
class Opponent:
    ident: str
    source: str
    program: Program


class OpponentSet:
    """A named list of opponent policies on one map with fixed seeds.

    Matches are cached per (behaviour key, opponent index).  A program's
    behaviour key is the canonical text of its behaviour form
    (:func:`~lintscore.sim.behaviour_form`), which drops the statements
    that cannot change a resolved joint assignment, so programs with one
    key play every match alike: an obfuscated copy reuses its original's
    matches.  A record kept for a key was played by the first program with
    that key, so the ``source`` of its actions is that program's verb;
    ``Action`` equality ignores it.  Each new match against an opponent
    follows the distinct records already played against it for as long as
    it repeats one of them (see :func:`play_match`), so a shared match is
    simulated and stored once.  Behavior reports are kept the same way, per
    (π key, other key, ``per_unit``), so :func:`~.behavior.compare`
    measures each pair once, however many batches repeat it.

    The set keeps the records of the programs it is asked to keep:
    :meth:`matches` keeps its program's, a :func:`~.behavior.compare` batch
    only its πs'.  A program that a batch only compares against a π, such
    as a reconstruction or a k-shot sample, has its records followed and
    replayed while its opponent's work lasts; they are then dropped, so
    memory grows with the πs, not with their samples.  The new entries of
    one opponent's work share one object per distinct unit tuple, counter
    tuple and joint assignment (:class:`~lintscore.sim.SharedParts`, made
    and dropped with that work, which also holds its read-only views), so
    a record kept here holds few parts of its own; pickling one opponent's
    records (:meth:`pack`) writes each shared object once.

    Each opponent's matches depend on no other opponent's, so
    :meth:`play` works one opponent at a time and may run in a forked
    process (:meth:`pack`, :meth:`unpack`); :meth:`store` then keeps the
    results in the order one process would have.
    """

    def __init__(
        self,
        name: str,
        opponents: list[Opponent],
        map_data: dict,
        seed: int = 0,
        max_ticks: int = 400,
    ):
        self.name = name
        self.opponents = opponents
        self.map_data = map_data
        self.seed = seed
        self.max_ticks = max_ticks
        self._cache: dict[tuple[str, int], MatchRecord] = {}
        # per opponent index, the distinct records in _cache
        self._played: list[list[MatchRecord]] = [[] for _ in opponents]
        # pair_key(pi, other, per_unit) -> compare's report for that pair
        self.reports: dict[tuple[str, str, bool], BehaviorReport] = {}
        # held from play to store, so threads sharing the set take turns
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.opponents)

    def initial_state(self, index: int) -> GameState:
        return state_from_map_dict(self.map_data, seed=self.seed + index)

    def pair_key(
        self, pi: Program, other: Program, per_unit: bool
    ) -> tuple[str, str, bool]:
        return (behaviour_key(pi), behaviour_key(other), per_unit)

    def matches(self, program: Program) -> list[MatchRecord]:
        """One record per opponent, evaluated policy playing as player 0;
        the set keeps them."""
        programs = [(behaviour_key(program), program)]
        with self.lock:
            results = [
                self.play(index, programs, SharedParts())
                for index in range(len(self))
            ]
            self.store(programs, results)
        return [records[0] for records in results]

    def play(
        self,
        index: int,
        programs: list[tuple[str, Program]],
        shared: SharedParts,
    ) -> list[MatchRecord]:
        """The record of each (behaviour key, program) against opponent
        ``index``, playing the missing ones in order, each following the
        records played before it; nothing is stored (see :meth:`store`).
        The matches share ``shared``, which gives their new entries one
        object per distinct part and holds the read-only views of the
        followed snapshots of opponent ``index``'s matches (see
        :func:`play_match`); the caller may evaluate on those views too,
        and drops ``shared`` with its work on this opponent."""
        played = list(self._played[index])
        records = []
        for text, program in programs:
            record = self._cache.get((text, index))
            if record is None:
                record = play_match(
                    program,
                    self.opponents[index].program,
                    self.initial_state(index),
                    max_ticks=self.max_ticks,
                    earlier=played,
                    shared=shared,
                )
                if all(r is not record for r in played):
                    played.append(record)
            records.append(record)
        return records

    def _new(self, index: int, records: list[MatchRecord]) -> list[MatchRecord]:
        """The distinct ``records`` that ``_played[index]`` lacks, in order."""
        known = {id(record) for record in self._played[index]}
        new = []
        for record in records:
            if id(record) not in known:
                known.add(id(record))
                new.append(record)
        return new

    def store(
        self,
        programs: list[tuple[str, Program]],
        results: list[list[MatchRecord]],
    ) -> None:
        """Keep the records of ``programs``, one list per opponent as
        :meth:`play` returned them, in program order.  Records of programs
        played with them but left out here are dropped with their
        caller's work."""
        for index, records in enumerate(results):
            self._played[index].extend(self._new(index, records))
        for position, (text, _) in enumerate(programs):
            for index, records in enumerate(results):
                self._cache.setdefault((text, index), records[position])

    def pack(
        self, index: int, records: list[MatchRecord]
    ) -> tuple[list[MatchRecord], list[int]]:
        """Records against opponent ``index`` for a process that holds this
        set as it was before they were played: records and entries that it
        already holds are sent as positions, record ``r`` and entry
        ``(r, e)`` of ``_played[index]``.  Records of one opponent share
        entries with no other opponent's."""
        prior = self._played[index]
        new = self._new(index, records)
        entry_at: dict[int, tuple[int, int]] = {}
        for r, record in enumerate(prior):
            for e, entry in enumerate(record.entries):
                entry_at.setdefault(id(entry), (r, e))
        record_at = {id(record): r for r, record in enumerate(prior + new)}
        packed = [
            replace(
                record,
                entries=[entry_at.get(id(entry), entry) for entry in record.entries],
            )
            for record in new
        ]
        return packed, [record_at[id(record)] for record in records]

    def unpack(
        self, index: int, packed: tuple[list[MatchRecord], list[int]]
    ) -> list[MatchRecord]:
        """The records that :meth:`pack` turned into ``packed``."""
        new, positions = packed
        prior = self._played[index]
        for record in new:
            record.entries = [
                prior[entry[0]].entries[entry[1]] if type(entry) is tuple else entry
                for entry in record.entries
            ]
        played = prior + new
        return [played[r] for r in positions]

    @classmethod
    def from_file(cls, path: str | Path) -> "OpponentSet":
        """Load a descriptor: a JSON object with ``map`` (a map file) and
        ``programs`` (a list of policy files), both relative to the
        descriptor, and optionally ``name``, ``seed`` and ``max_ticks``.

        Anything else, and any file that cannot be read or parsed, raises
        :class:`ConfigError` naming the descriptor and the key or file.
        """
        path = Path(path)

        def fail(problem: str) -> ConfigError:
            return ConfigError(f"opponent set {path}: {problem}")

        data = read_json(path, path.name, fail)
        unknown = sorted(set(data) - set(_DESCRIPTOR_KEYS))
        if unknown:
            raise fail(f"unknown keys {unknown}")
        for key in ("map", "programs"):
            if key not in data:
                raise fail(f"missing {key!r}")
        for key, kind in _DESCRIPTOR_KEYS.items():
            # json.loads makes exact types, so a bool is no int here
            if key in data and type(data[key]) is not kind:
                raise fail(f"{key!r} must be {kind.__name__}")
        programs = data["programs"]
        if not programs or not all(type(entry) is str for entry in programs):
            raise fail("'programs' must list at least one policy file")
        if data.get("max_ticks", 1) < 1:
            raise fail("'max_ticks' must be >= 1")
        opponents = []
        for entry in programs:
            source = read_text(path.parent / entry, entry, fail)
            try:
                program = parse(source)
            except ParseError as exc:
                raise fail(f"{entry}: {exc}") from exc
            opponents.append(Opponent(Path(entry).stem, source, program))
        map_data = read_json(path.parent / data["map"], data["map"], fail)
        try:
            # checked once here: every match builds its start from map_data
            state_from_map_dict(map_data)
        except ValueError as exc:
            raise fail(f"{data['map']}: {exc}") from exc
        return cls(
            data.get("name", path.stem),
            opponents,
            map_data,
            seed=data.get("seed", 0),
            max_ticks=data.get("max_ticks", 400),
        )
