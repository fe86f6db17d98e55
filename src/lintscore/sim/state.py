"""Mutable game state, map loading, and state snapshots."""
from __future__ import annotations

from collections.abc import Iterable

from .units import DEFAULT_STATS, RESOURCE

Cell = tuple[int, int]


class Unit:
    __slots__ = ("uid", "kind", "owner", "x", "y", "hp", "carried", "resources")

    def __init__(
        self,
        uid: int,
        kind: str,
        owner: int | None,
        x: int,
        y: int,
        hp: int,
        carried: int = 0,
        resources: int = 0,
    ):
        self.uid = uid
        self.kind = kind
        self.owner = owner  # 0, 1, or None for resource nodes
        self.x = x
        self.y = y
        self.hp = hp
        self.carried = carried
        self.resources = resources  # remaining amount, resource nodes only

    @property
    def pos(self) -> Cell:
        return (self.x, self.y)

    def as_tuple(self) -> tuple:
        return (
            self.uid,
            self.kind,
            self.owner,
            self.x,
            self.y,
            self.hp,
            self.carried,
            self.resources,
        )

    def __repr__(self) -> str:
        return f"Unit{self.as_tuple()!r}"


class Sides:
    """The units split as policy evaluation reads them: each player's units
    and per-kind counts, and the resource nodes with resources left, each
    list in ascending id order. Only a spawn or a removal changes it (a node
    that runs out is removed at the end of its tick); moves, damage and
    harvests change the units it holds, not the split."""

    __slots__ = ("units", "counts", "nodes")

    def __init__(self, units: Iterable[Unit]):
        self.units: tuple[list[Unit], list[Unit]] = ([], [])
        self.counts: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.nodes: list[Unit] = []
        for unit in units:
            if unit.owner is not None:
                self.units[unit.owner].append(unit)
                counts = self.counts[unit.owner]
                counts[unit.kind] = counts.get(unit.kind, 0) + 1
            if unit.kind == RESOURCE and unit.resources > 0:
                self.nodes.append(unit)


class GameState:
    """Grid world with at most one unit per cell.

    ``units ascends by id (see ``__init__``), so nothing sorts it.
    :meth:`sides` builds the :class:`Sides` split once and keeps it until
    :meth:`add_unit` or :meth:`remove_unit` changes which units exist, so
    both players' evaluations on one state, and those on later ticks with
    no spawn or death, share it.
    """

    def __init__(
        self,
        width: int,
        height: int,
        seed: int = 0,
        player_resources: tuple[int, int] = (0, 0),
    ):
        self.width = width
        self.height = height
        self.seed = seed
        self.player_resources = [player_resources[0], player_resources[1]]
        # ascending id order: ids come from ``next_uid``, which only grows,
        # and restore_state and clone insert in id order
        self.units: dict[int, Unit] = {}
        self._sides: Sides | None = None
        self.occupancy: dict[Cell, int] = {}
        self.next_uid = 0

    # -- construction -------------------------------------------------------

    def add_unit(
        self,
        kind: str,
        owner: int | None,
        x: int,
        y: int,
        hp: int | None = None,
        carried: int = 0,
        resources: int = 0,
    ) -> Unit:
        if not self.in_bounds(x, y):
            raise ValueError(f"cell ({x}, {y}) out of bounds")
        if (x, y) in self.occupancy:
            raise ValueError(f"cell ({x}, {y}) already occupied")
        uid = self.next_uid
        self.next_uid += 1
        unit = Unit(
            uid,
            kind,
            owner,
            x,
            y,
            DEFAULT_STATS[kind].hp if hp is None else hp,
            carried,
            resources,
        )
        self.units[uid] = unit
        self.occupancy[(x, y)] = uid
        self._sides = None
        return unit

    def remove_unit(self, uid: int) -> None:
        unit = self.units.pop(uid)
        del self.occupancy[unit.pos]
        self._sides = None

    def move_unit(self, uid: int, cell: Cell) -> None:
        unit = self.units[uid]
        del self.occupancy[unit.pos]
        unit.x, unit.y = cell
        self.occupancy[cell] = uid

    # -- queries ------------------------------------------------------------

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(*cell) and cell not in self.occupancy

    def sides(self) -> Sides:
        if self._sides is None:
            self._sides = Sides(self.units.values())
        return self._sides

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, tuples: dict[tuple, tuple] | None = None) -> tuple:
        """Hashable description of the full state.

        ``tuples`` maps tuples to themselves: a unit tuple equal to one in
        it is that object, and a new one is added, so the snapshots made
        with one table share their equal unit tuples."""
        units = [unit.as_tuple() for unit in self.units.values()]
        return (
            self.width,
            self.height,
            self.seed,
            self.player_resources[0],
            self.player_resources[1],
            tuple(units if tuples is None else map(tuples.setdefault, units, units)),
        )

    def clone(self) -> "GameState":
        other = GameState(
            self.width,
            self.height,
            self.seed,
            (self.player_resources[0], self.player_resources[1]),
        )
        other.next_uid = self.next_uid
        for uid, unit in self.units.items():
            copy = Unit(*unit.as_tuple())
            other.units[uid] = copy
            other.occupancy[copy.pos] = uid
        return other


def restore_state(snapshot: tuple) -> GameState:
    """Rebuild a state from :meth:`GameState.snapshot` output.

    Restored states are meant for policy re-evaluation, so their split is
    built here; the unit-id counter restarts above the highest live id.
    """
    width, height, seed, res0, res1, unit_tuples = snapshot
    state = GameState(width, height, seed, (res0, res1))
    units = [Unit(*fields) for fields in unit_tuples]
    state.units = {unit.uid: unit for unit in units}
    state.occupancy = {(unit.x, unit.y): unit.uid for unit in units}
    state._sides = Sides(units)
    state.next_uid = max(state.units, default=-1) + 1
    return state


# ---------------------------------------------------------------------------
# map files
# ---------------------------------------------------------------------------

_OWNER_NAMES = {"P0": 0, "P1": 1, None: None}


def state_from_map_dict(data: dict, seed: int = 0) -> GameState:
    """The start of a match on a map file's data; raises ValueError when
    the data is not a map."""
    try:
        resources = data.get("player_resources", [0, 0])
        state = GameState(
            data["width"], data["height"], seed, (resources[0], resources[1])
        )
        for cell in data["cells"]:
            x, y = cell["pos"]
            owner = _OWNER_NAMES[cell.get("owner")]
            state.add_unit(
                cell["kind"], owner, x, y, resources=cell.get("resources", 0)
            )
    except (AttributeError, LookupError, TypeError) as exc:
        raise ValueError(f"not a map: {type(exc).__name__} {exc}") from exc
    return state
