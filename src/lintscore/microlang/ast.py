"""AST node types and terminal vocabularies for the policy microlanguage."""
from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# terminal vocabularies
# ---------------------------------------------------------------------------

UNIT_TYPES = ("Base", "Barracks", "Ranged", "Heavy", "Light", "Worker")

NUMBERS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 50, 100)

DIRECTIONS = ("EnemyDir", "Up", "Down", "Right", "Left")

CRITERIA = (
    "Strongest",
    "Weakest",
    "Closest",
    "Farthest",
    "LessHealthy",
    "MostHealthy",
    "Random",
)

PLAYER_TARGETS = ("Ally", "Enemy")

# boolean function name -> argument signature
# signature entries: "T" unit type, "N" number
BOOL_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "hasNumberOfUnits": ("T", "N"),
    "opponentHasNumberOfUnits": ("T", "N"),
    "hasLessNumberOfUnits": ("T", "N"),
    "haveQtdUnitsAttacking": ("N",),
    "hasUnitWithinDistanceFromOpponent": ("N",),
    "hasNumberOfWorkersHarvesting": ("N",),
    "is_Type": ("T",),
    "isBuilder": (),
    "canAttack": (),
    "hasUnitThatKillsInOneAttack": (),
    "opponentHasUnitThatKillsUnitInOneAttack": (),
    "hasUnitInOpponentRange": (),
    "opponentHasUnitInPlayerRange": (),
    "canHarvest": (),
}

# command name -> argument signature
# signature entries: "T" unit type, "N" number, "D" direction,
# "O" selection criterion, "P" player target
COMMANDS: dict[str, tuple[str, ...]] = {
    "build": ("T", "D", "N"),
    "train": ("T", "D", "N"),
    "moveToUnit": ("P", "O"),
    "attack": ("O",),
    "harvest": ("N",),
    "idle": (),
    "moveAway": (),
    "attack_if_in_range": (),
}


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoolCall:
    """A boolean guard call such as ``u.canHarvest()``."""

    name: str
    args: tuple[str | int, ...] = ()


@dataclass(frozen=True)
class Command:
    """A command statement such as ``u.train(Worker,Up,2)``."""

    name: str
    args: tuple[str | int, ...] = ()


@dataclass(frozen=True)
class Empty:
    """The explicit do-nothing statement, written ``e``."""


@dataclass(frozen=True)
class If:
    cond: BoolCall
    then: tuple[Statement, ...]
    orelse: tuple[Statement, ...] | None = None


@dataclass(frozen=True)
class ForLoop:
    body: tuple[Statement, ...]


Statement = Command | Empty | If | ForLoop


@dataclass(frozen=True)
class Program:
    body: tuple[Statement, ...] = field(default_factory=tuple)
    # Values computed from ``body`` (its printed text, behaviour key and
    # lowered function), kept for as long as the program lives. They take
    # no part in equality, hashing or repr, and ``dataclasses.replace``
    # starts a new program with an empty memo.
    derived: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )


def walk(node: Program | Statement):
    """Yield every statement node in the tree, preorder."""
    if isinstance(node, Program):
        stmts = node.body
    elif isinstance(node, ForLoop):
        stmts = node.body
    elif isinstance(node, If):
        stmts = node.then + (node.orelse or ())
    else:
        stmts = ()
    for stmt in stmts:
        yield stmt
        yield from walk(stmt)


def to_dict(node: Program | Statement | BoolCall) -> dict:
    """A JSON-serializable view of an AST node."""
    if isinstance(node, Program):
        return {"type": "Program", "body": [to_dict(s) for s in node.body]}
    if isinstance(node, ForLoop):
        return {"type": "ForLoop", "body": [to_dict(s) for s in node.body]}
    if isinstance(node, If):
        return {
            "type": "If",
            "cond": to_dict(node.cond),
            "then": [to_dict(s) for s in node.then],
            "orelse": (
                None
                if node.orelse is None
                else [to_dict(s) for s in node.orelse]
            ),
        }
    if isinstance(node, Command):
        return {"type": "Command", "name": node.name, "args": list(node.args)}
    if isinstance(node, BoolCall):
        return {"type": "BoolCall", "name": node.name, "args": list(node.args)}
    if isinstance(node, Empty):
        return {"type": "Empty"}
    raise TypeError(f"not an AST node: {node!r}")
