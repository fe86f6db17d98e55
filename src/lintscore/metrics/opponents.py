"""Opponent sets: the fixed evaluation gauntlet for behavior comparison."""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..microlang import ParseError, Program, parse, print_program
from ..resources import ConfigError, read_json, read_text
from ..sim import GameState, MatchRecord, play_match, state_from_map_dict

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

    Matches are cached per (policy text, opponent index): the simulator is
    deterministic, so equal canonical sources always replay identically.
    Each new match against an opponent follows the distinct records already
    played against it for as long as it repeats one of them (see
    :func:`play_match`), so a shared match is simulated and stored once.
    Behavior reports are kept the same way, per (π text, other text,
    ``per_unit``), so :func:`~.behavior.compare` measures each pair once,
    however many batches repeat it.

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
        # id(program) -> its canonical text, dropped when the program is freed
        self._keys: dict[int, str] = {}
        # pair_key(pi, other, per_unit) -> compare's report for that pair
        self.reports: dict[tuple[str, str, bool], BehaviorReport] = {}
        # held from play to store, so threads sharing the set take turns
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.opponents)

    def initial_state(self, index: int) -> GameState:
        return state_from_map_dict(self.map_data, seed=self.seed + index)

    def _key_text(self, program: Program) -> str:
        key = id(program)
        text = self._keys.get(key)
        if text is None:
            text = self._keys[key] = print_program(program)
            weakref.finalize(program, self._keys.pop, key, None)
        return text

    def pair_key(
        self, pi: Program, other: Program, per_unit: bool
    ) -> tuple[str, str, bool]:
        return (self._key_text(pi), self._key_text(other), per_unit)

    def matches(self, program: Program) -> list[MatchRecord]:
        """One record per opponent, evaluated policy playing as player 0."""
        programs = [(self._key_text(program), program)]
        with self.lock:
            results = [
                self.play(index, programs, {}) for index in range(len(self))
            ]
            self.store(programs, results)
        return [records[0] for _, records in results]

    def play(
        self,
        index: int,
        programs: list[tuple[str, Program]],
        views: dict[tuple, GameState],
    ) -> tuple[list[MatchRecord], list[MatchRecord]]:
        """The records of distinct (canonical text, program) pairs against
        opponent ``index``, playing the missing ones in order, each following
        the records played before it; nothing is stored (see :meth:`store`).
        The matches share ``views``, states restored from snapshots of
        opponent ``index``'s matches (see :func:`play_match`).

        Returns the new distinct records and one record per program.
        """
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
                    views=views,
                )
                if all(r is not record for r in played):
                    played.append(record)
            records.append(record)
        return played[len(self._played[index]):], records

    def store(
        self,
        programs: list[tuple[str, Program]],
        results: list[tuple[list[MatchRecord], list[MatchRecord]]],
    ) -> None:
        """Keep what :meth:`play` returned for ``programs``, one result per
        opponent, in the order that playing one program at a time keeps it."""
        for played, (new, _) in zip(self._played, results):
            played.extend(new)
        for position, (text, _) in enumerate(programs):
            for index, (_, records) in enumerate(results):
                self._cache.setdefault((text, index), records[position])

    def pack(
        self, index: int, new: list[MatchRecord], records: list[MatchRecord]
    ) -> tuple[list[MatchRecord], list[int]]:
        """A result of :meth:`play` for a process that holds this set as it
        was before the play: records and entries that it already holds are
        sent as positions, record ``r`` and entry ``(r, e)`` of
        ``_played[index]``.  Records of one opponent share entries with no
        other opponent's."""
        prior = self._played[index]
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
    ) -> tuple[list[MatchRecord], list[MatchRecord]]:
        """The result that :meth:`pack` turned into ``packed``."""
        new, positions = packed
        prior = self._played[index]
        for record in new:
            record.entries = [
                prior[entry[0]].entries[entry[1]] if type(entry) is tuple else entry
                for entry in record.entries
            ]
        played = prior + new
        return new, [played[r] for r in positions]

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
