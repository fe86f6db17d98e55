"""Unit kinds and their statistics: the simulator's one rule set."""
from __future__ import annotations

from dataclasses import dataclass

BASE = "Base"
BARRACKS = "Barracks"
WORKER = "Worker"
LIGHT = "Light"
HEAVY = "Heavy"
RANGED = "Ranged"
RESOURCE = "Resource"


@dataclass(frozen=True)
class UnitStats:
    hp: int
    cost: int
    attack_damage: int = 0
    attack_range: int = 0
    can_move: bool = False
    can_attack: bool = False
    can_harvest: bool = False
    builds: tuple[str, ...] = ()
    trains: tuple[str, ...] = ()


DEFAULT_STATS: dict[str, UnitStats] = {
    BASE: UnitStats(hp=10, cost=10, trains=(WORKER,)),
    BARRACKS: UnitStats(hp=4, cost=5, trains=(LIGHT, HEAVY, RANGED)),
    WORKER: UnitStats(
        hp=1,
        cost=1,
        attack_damage=1,
        attack_range=1,
        can_move=True,
        can_attack=True,
        can_harvest=True,
        builds=(BASE, BARRACKS),
    ),
    LIGHT: UnitStats(
        hp=4, cost=2, attack_damage=2, attack_range=1, can_move=True, can_attack=True
    ),
    HEAVY: UnitStats(
        hp=4, cost=2, attack_damage=4, attack_range=1, can_move=True, can_attack=True
    ),
    RANGED: UnitStats(
        hp=1, cost=2, attack_damage=1, attack_range=3, can_move=True, can_attack=True
    ),
    RESOURCE: UnitStats(hp=1, cost=0),
}
