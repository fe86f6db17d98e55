"""Opponent sets: the fixed evaluation gauntlet for behavior comparison."""
from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..microlang import Program, parse, print_program
from ..resources import data_path
from ..sim import GameState, MatchRecord, play_match, state_from_map_dict

if TYPE_CHECKING:
    from .behavior import BehaviorReport


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
    ``per_unit``), so :func:`~.behavior.compare` measures each pair once.
    """

    def __init__(
        self,
        name: str,
        opponents: list[Opponent],
        map_data: dict,
        seed: int = 0,
        max_ticks: int = 400,
        decision_period: int = 1,
    ):
        self.name = name
        self.opponents = opponents
        self.map_data = map_data
        self.seed = seed
        self.max_ticks = max_ticks
        self.decision_period = decision_period
        self._cache: dict[tuple[str, int], MatchRecord] = {}
        # per opponent index, the distinct records in _cache
        self._played: list[list[MatchRecord]] = [[] for _ in opponents]
        # id(program) -> its canonical text, dropped when the program is freed
        self._keys: dict[int, str] = {}
        # pair_key(pi, other, per_unit) -> compare's report for that pair
        self.reports: dict[tuple[str, str, bool], BehaviorReport] = {}

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
        key_text = self._key_text(program)
        records = []
        for index, opponent in enumerate(self.opponents):
            key = (key_text, index)
            record = self._cache.get(key)
            if record is None:
                played = self._played[index]
                record = play_match(
                    program,
                    opponent.program,
                    self.initial_state(index),
                    max_ticks=self.max_ticks,
                    decision_period=self.decision_period,
                    earlier=played,
                )
                if all(r is not record for r in played):
                    played.append(record)
                self._cache[key] = record
            records.append(record)
        return records

    @classmethod
    def from_file(cls, path: str | Path) -> "OpponentSet":
        path = Path(path)
        data = json.loads(path.read_text())
        root = path.parent
        opponents = []
        for entry in data["programs"]:
            source = (root / entry).read_text()
            opponents.append(Opponent(Path(entry).stem, source, parse(source)))
        map_data = json.loads((root / data["map"]).read_text())
        return cls(
            data.get("name", path.stem),
            opponents,
            map_data,
            seed=data.get("seed", 0),
            max_ticks=data.get("max_ticks", 400),
            decision_period=data.get("decision_period", 1),
        )


_STANDARD_FILES = {16: "opponents16.json", 8: "opponents8.json"}
_standard_cache: dict[int, OpponentSet] = {}


def standard_opponents(size: int = 16) -> OpponentSet:
    """The bundled opponent set for the given map size (16 or 8), shared
    process-wide so its match cache accumulates."""
    if size not in _standard_cache:
        _standard_cache[size] = OpponentSet.from_file(
            data_path(_STANDARD_FILES[size])
        )
    return _standard_cache[size]
