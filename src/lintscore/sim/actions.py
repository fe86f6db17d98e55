"""Resolved per-unit actions.

Commands in the policy language resolve to one of six concrete action forms
at each decision point. Equality intentionally ignores the originating
command verb: an unassigned unit, ``idle()``, and ``attack_if_in_range()``
resolve to identical actions in identical situations, so behavior comparison
sees through surface-level rewording of a policy.
"""
from __future__ import annotations

STAND = "stand"
ATTACK = "attack"
MOVE = "move"
HARVEST = "harvest"
DEPOSIT = "deposit"
SPAWN = "spawn"


class Action:
    """One resolved action: ``target`` is the victim, resource node or
    deposit base, ``cell`` the move destination or spawn placement,
    ``unit_type`` the spawned kind and ``source`` the originating command
    verb. Plain slots keep it cheap to build; no code writes to an action
    once built, so equal results may share one object."""

    __slots__ = ("op", "target", "cell", "unit_type", "source")

    def __init__(self, op: str, target: int | None = None,
                 cell: tuple[int, int] | None = None,
                 unit_type: str | None = None, source: str = ""):
        self.op = op
        self.target = target
        self.cell = cell
        self.unit_type = unit_type
        self.source = source

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Action:
            return NotImplemented
        return (
            self.op == other.op
            and self.target == other.target
            and self.cell == other.cell
            and self.unit_type == other.unit_type
        )

    def __hash__(self) -> int:
        return hash((self.op, self.target, self.cell, self.unit_type))

    def __repr__(self) -> str:
        fields = (self.op, self.target, self.cell, self.unit_type, self.source)
        return f"Action{fields!r}"

    def to_json(self) -> dict:
        data: dict = {"op": self.op}
        if self.target is not None:
            data["target"] = self.target
        if self.cell is not None:
            data["cell"] = list(self.cell)
        if self.unit_type is not None:
            data["unit_type"] = self.unit_type
        if self.source:
            data["source"] = self.source
        return data
