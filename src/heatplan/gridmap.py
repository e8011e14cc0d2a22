"""Occupancy-grid world model, semantic goal regions, map generators and codecs.

Coordinates: world positions are continuous ``(x, y)`` in units with the origin
at the bottom-left corner; ``x`` grows rightward, ``y`` grows upward.  The grid
is stored as a boolean array ``occupancy[row, col]`` with ``True`` = obstacle
and row 0 at the bottom, matching the on-disk format.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from operator import index
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    GenerationError,
    MapFormatError,
    ParameterError,
    UnknownLabelError,
)

MAP_FORMAT_VERSION = 1
SCENARIO_FORMAT_VERSION = 1

FAMILIES = ("drop_region", "conveyor", "room", "shelf")

WORLD_SIZE = (2.0, 2.0)  # (width, height) in units of generated and empty maps

# Demo label vocabulary; instruction matching is case-insensitive exact-token.
VOCABULARY = (
    "apple",
    "basketball",
    "box",
    "dock",
    "pallet",
    "crate",
    "charger",
    "bin",
    "cone",
    "barrel",
    "kiosk",
    "hub",
)

_LABEL_RE = re.compile(r"[a-z][a-z0-9_]*")  # matched whole, by fullmatch
_INSTRUCTION_RE = re.compile(r"^move to the ([a-z0-9_]+)$")


@dataclass(frozen=True)
class SemanticRegion:
    """A labeled set of free cells acting as a goal / heat source."""

    label: str
    cells: tuple  # ((col, row), ...), a nonempty 4-connected set

    def __post_init__(self):
        if not isinstance(self.label, str) or not _LABEL_RE.fullmatch(self.label):
            raise ParameterError(f"must be a lowercase token, got {self.label!r}", field="label")
        if not isinstance(self.cells, (tuple, list)) or not self.cells:
            raise ParameterError(f"must be a nonempty list of (col, row) pairs, got {self.cells!r}", field="cells")
        pairs = tuple(map(_int_pair, self.cells))
        if None in pairs:
            j = pairs.index(None)
            raise ParameterError(f"must be a (col, row) pair of integers, got {self.cells[j]!r}", field=f"cells[{j}]")
        object.__setattr__(self, "cells", pairs)
        if not _cells_4connected(pairs):
            raise ParameterError(f"of region {self.label!r} are not 4-connected", field="cells")

    def centroid(self) -> tuple:
        cols = [c for c, _ in self.cells]
        rows = [r for _, r in self.cells]
        return (sum(cols) / len(cols), sum(rows) / len(rows))


def _int_pair(cell):
    """``cell`` as a pair of ints, or None unless it is a list or tuple of
    two integers; bools, floats and strings are not integers here."""
    try:
        if isinstance(cell, (tuple, list)) and len(cell) == 2 and bool not in map(type, cell):
            return (index(cell[0]), index(cell[1]))
    except TypeError:
        pass
    return None


def _cells_4connected(cells) -> bool:
    cols = [c for c, _ in cells]
    rows = [r for _, r in cells]
    c0, r0 = min(cols), min(rows)
    width, height = max(cols) - c0 + 1, max(rows) - r0 + 1
    # k 4-connected cells have width + height <= k + 1; the check also keeps
    # the local grid below small when the cells are scattered
    if width + height - 1 > len(set(cells)):
        return False
    # offsets are taken in Python ints, so cells beyond int64 cannot overflow
    inside = np.zeros((height, width), dtype=bool)
    inside[[r - r0 for r in rows], [c - c0 for c in cols]] = True
    return bool((hop_distances(inside, [(cols[0] - c0, rows[0] - r0)])[inside] >= 0).all())


class WorldMap:
    """Immutable occupancy grid plus labeled goal regions.

    Parameters
    ----------
    name : str
    occupancy : (H, W) bool array, True = obstacle, row 0 = bottom.
    world_size : (width, height) in units; default WORLD_SIZE.
    regions : sequence of SemanticRegion on free cells.
    """

    def __init__(self, name, occupancy, world_size=WORLD_SIZE, regions=()):
        if not isinstance(name, str):
            raise ParameterError(f"must be a string, got {name!r}", field="name")
        occupancy = np.array(occupancy, dtype=bool)  # a copy: frozen below, not the caller's
        if occupancy.ndim != 2 or occupancy.shape[0] < 1 or occupancy.shape[1] < 1:
            raise ParameterError("must be a non-empty 2D grid", field="occupancy")
        if occupancy.all():
            raise ParameterError("has no free cell", field="occupancy")
        self.name = name
        self.height_cells, self.width_cells = occupancy.shape
        # each cell must have a positive float size
        if not (_is_point(world_size) and all(float(v) / n > 0 for v, n in zip(world_size, occupancy.shape[::-1]))):
            raise ParameterError(f"must be (width, height) of positive numbers, got {world_size!r}", field="world_size")
        self.world_size = (float(world_size[0]), float(world_size[1]))
        self._occ = occupancy
        self._occ.setflags(write=False)
        if not isinstance(regions, (tuple, list)):
            raise ParameterError(f"must be a list of SemanticRegion, got {regions!r}", field="regions")
        self.regions = tuple(regions)
        self.cell_size = (
            self.world_size[0] / self.width_cells,
            self.world_size[1] / self.height_cells,
        )
        for i, reg in enumerate(self.regions):
            if not isinstance(reg, SemanticRegion):
                raise ParameterError(f"must be a SemanticRegion, got {reg!r}", field=f"regions[{i}]")
            for j, (col, row) in enumerate(reg.cells):
                inside = 0 <= col < self.width_cells and 0 <= row < self.height_cells
                if not inside or self._occ[row, col]:
                    problem = "lies on an obstacle" if inside else "is out of bounds"
                    raise ParameterError(f"({col}, {row}) of region {reg.label!r} {problem}",
                                         field=f"regions[{i}].cells[{j}]")
        self._hash = None

    @property
    def occupancy(self) -> np.ndarray:
        return self._occ

    @property
    def free(self) -> np.ndarray:
        return ~self._occ

    def labels(self) -> tuple:
        seen = []
        for reg in self.regions:
            if reg.label not in seen:
                seen.append(reg.label)
        return tuple(seen)

    def regions_with_label(self, label):
        return [r for r in self.regions if r.label == label]

    def content_hash(self) -> str:
        """Hex digest of the canonical encoding; cache key for score fields."""
        if self._hash is None:
            doc = encode_map(self)
            self._hash = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        return self._hash

    def __repr__(self):
        return (
            f"WorldMap({self.name!r}, {self.width_cells}x{self.height_cells}, "
            f"{len(self.regions)} regions)"
        )


def empty_map(name="empty", cells=128, regions=()) -> WorldMap:
    """Fully free square map on a WORLD_SIZE world; handy for analytic checks."""
    occ = np.zeros((cells, cells), dtype=bool)
    return WorldMap(name, occ, regions=regions)


def _is_real(v) -> bool:
    """True for a non-bool number that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _is_point(p) -> bool:
    """True for a length-2 sequence (not a string) of ``_is_real`` numbers."""
    try:
        return not isinstance(p, (str, bytes)) and len(p) == 2 and all(_is_real(v) for v in p)
    except TypeError:  # no length
        return False


# ---------------------------------------------------------------------------
# point <-> cell mapping


def world_to_cell(p, worldmap: WorldMap) -> tuple:
    """Index of the cell containing ``p``; raises DomainError outside the map."""
    x, y = float(p[0]), float(p[1])
    w, h = worldmap.world_size
    if not (0.0 <= x < w and 0.0 <= y < h):
        raise DomainError(f"point ({x}, {y}) outside [0,{w}) x [0,{h})")
    col = min(int(x / worldmap.cell_size[0]), worldmap.width_cells - 1)
    row = min(int(y / worldmap.cell_size[1]), worldmap.height_cells - 1)
    return (col, row)


def cell_center(cell, worldmap: WorldMap) -> tuple:
    col, row = cell
    return (
        (col + 0.5) * worldmap.cell_size[0],
        (row + 0.5) * worldmap.cell_size[1],
    )


def is_free(p, worldmap: WorldMap) -> bool:
    """True iff ``p`` lies in the map and its cell is obstacle-free."""
    try:
        col, row = world_to_cell(p, worldmap)
    except DomainError:
        return False
    return not worldmap.occupancy[row, col]


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class RobotSpec:
    id: str
    instruction: str
    start: Optional[tuple] = None  # (x, y) in units, or None to sample


@dataclass(frozen=True)
class Scenario:
    """A map, its robots and a seed; each start is kept as a (float, float)
    pair.  A ParameterError names the offending field, e.g. ``"seed"`` or
    ``"robots[1].start"``."""

    map: WorldMap
    robots: tuple
    seed: int = 0
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.map, WorldMap):
            raise ParameterError(f"must be a WorldMap, got {self.map!r}", field="map")
        if not isinstance(self.robots, (tuple, list)) or not self.robots:
            raise ParameterError(f"must be a nonempty sequence of RobotSpec, got {self.robots!r}", field="robots")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ParameterError(f"must be an unsigned integer, got {self.seed!r}", field="seed")
        robots, ids, starts = [], {}, {}  # id -> index, start -> id
        for i, robot in enumerate(self.robots):
            robot = _checked_robot(robot, f"robots[{i}]", self.map)
            if robot.id in ids:
                raise ParameterError(f"repeats the id {robot.id!r} of robots[{ids[robot.id]}]", field=f"robots[{i}].id")
            # pairwise guidance is undefined for robots on the same point
            if robot.start in starts:
                raise ParameterError(f"is shared by robots {starts[robot.start]!r} and {robot.id!r}: {robot.start}",
                                     field=f"robots[{i}].start")
            ids[robot.id] = i
            if robot.start is not None:
                starts[robot.start] = robot.id
            robots.append(robot)
        object.__setattr__(self, "robots", tuple(robots))
        if not isinstance(self.config, dict) or not all(isinstance(key, str) for key in self.config):
            raise ParameterError(f"must be a dict of planner parameters by name, got {self.config!r}", field="config")
        for key, val in self.config.items():
            if not _is_real(val):
                raise ParameterError(f"must be a finite number, got {val!r}", field=f"config.{key}")


def _checked_robot(robot, where: str, worldmap: WorldMap) -> RobotSpec:
    """``robot`` with its start as a (float, float) pair; raises a
    ParameterError naming its first malformed field under ``where``."""
    if not isinstance(robot, RobotSpec):
        raise ParameterError(f"must be a RobotSpec, got {robot!r}", field=where)
    if not isinstance(robot.id, str) or not robot.id:
        raise ParameterError(f"must be a nonempty string, got {robot.id!r}", field=f"{where}.id")
    if not isinstance(robot.instruction, str) or not robot.instruction.strip():
        raise ParameterError(f"must be a nonempty string, got {robot.instruction!r}", field=f"{where}.instruction")
    try:
        resolve_goal_regions(robot.instruction, worldmap)
    except UnknownLabelError as exc:
        raise ParameterError(f"names an unknown label: {exc}", field=f"{where}.instruction") from exc
    start = robot.start
    if start is None:
        return robot
    if not _is_point(start):
        raise ParameterError(f"must be None or a point (x, y) of finite numbers, got {start!r}", field=f"{where}.start")
    start = (float(start[0]), float(start[1]))
    if not is_free(start, worldmap):
        raise ParameterError(f"{start} is not in free space", field=f"{where}.start")
    return RobotSpec(robot.id, robot.instruction, start)


def resolve_goal_regions(instruction: str, worldmap: WorldMap):
    """Match an instruction to goal regions.

    Accepts the template "move to the <label>" or a bare label, case
    insensitive.  All regions carrying the label are returned (duplicate
    labels are multi-instance goals).
    """
    if not instruction or not instruction.strip():
        raise ParameterError("instruction is empty")
    text = " ".join(instruction.lower().split())
    m = _INSTRUCTION_RE.match(text)
    token = m.group(1) if m else text
    matches = worldmap.regions_with_label(token)
    if not matches:
        raise UnknownLabelError(token, [r.label for r in worldmap.regions])
    return matches


# ---------------------------------------------------------------------------
# grid connectivity: the one BFS, shared by the generators, the benchmark's
# reachability oracle and the goal distances of its records


def hop_distances(free: np.ndarray, seed_cells) -> np.ndarray:
    """4-connected hop count from the nearest seed cell through ``free``.

    ``seed_cells`` is a sequence of free ``(col, row)`` cells; the result is
    an (H, W) int64 grid holding -1 on obstacles and unreachable cells.
    """
    cols, rows = np.asarray(seed_cells, dtype=np.int64).reshape(-1, 2).T
    frontier = np.zeros(free.shape, dtype=bool)
    frontier[rows, cols] = True
    dist = np.where(frontier, 0, -1)
    unseen = free & ~frontier
    d = 0
    while frontier.any():
        d += 1
        grown = np.zeros_like(frontier)
        grown[1:, :] |= frontier[:-1, :]
        grown[:-1, :] |= frontier[1:, :]
        grown[:, 1:] |= frontier[:, :-1]
        grown[:, :-1] |= frontier[:, 1:]
        frontier = grown & unseen
        unseen &= ~frontier
        np.putmask(dist, frontier, d)
    return dist


def _largest_component(occ):
    """Mask of the largest free component; ties go to the one holding the
    lowest row-major free cell."""
    free = ~occ
    remaining = free.copy()
    best, best_size = None, 0
    while remaining.any():
        row, col = divmod(int(remaining.argmax()), occ.shape[1])
        mask = hop_distances(free, [(col, row)]) >= 0
        remaining &= ~mask
        size = int(mask.sum())
        if size > best_size:
            best, best_size = mask, size
    return best


# ---------------------------------------------------------------------------
# generators


# family tunings
REGION_SIDE = 2                 # side of a square labeled region, in cells
REGION_SEPARATION = 0.30        # min distance between region centers, units
# drop_region
ZONES = (2, 4)                  # number of large labeled zones
ZONE_SIDE = (10, 18)            # zone rectangle side range, cells
FILL_RANGE = (0.06, 0.16)       # admissible obstacle fraction
BLOCK_SIDE = (4, 12)            # scattered block side range, cells
# conveyor; gaps sit comfortably above d_safe=0.10 (6.4 cells at 128) so two
# robots can pass, while any >=3 would still satisfy the family rule
BELTS = (2, 3)
BELT_THICKNESS = (3, 6)
GAP_CELLS = 7                   # minimum passage width through a belt
# room
ROOMS_PER_SIDE = (2, 3)
DOORWAY_CELLS = (2, 3)
WALL_THICKNESS = 2
# shelf; aisles must admit two robots passing at d_safe separation
MIN_AISLE = 9
SHELF_THICKNESS = (2, 4)


def generate_map(family, seed, cells=128, n_labels=4, seal_duplicate=False) -> WorldMap:
    """Deterministic map generator for one of the four families.

    ``cells`` is the grid side, ``n_labels`` the number of labeled regions,
    and ``seal_duplicate`` (the OOD variant) adds a second instance of the
    first label sealed behind an obstacle ring.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    for name, value in (("seed", seed), ("cells", cells), ("n_labels", n_labels)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed!r}")
    if cells < 16:
        raise ParameterError("cells must be >= 16")
    if n_labels < 1 or n_labels > len(VOCABULARY):
        raise ParameterError(f"n_labels must be in 1..{len(VOCABULARY)}")
    seed = int(seed)
    rng = np.random.default_rng(np.random.SeedSequence([FAMILIES.index(family), seed]))

    occ = np.zeros((cells, cells), dtype=bool)
    occ[0, :] = occ[-1, :] = True
    occ[:, 0] = occ[:, -1] = True

    protected = np.zeros_like(occ)  # cells obstacles must not touch
    zone_rects = []
    if family == "drop_region":
        zone_rects = _drop_region_obstacles(occ, protected, rng)
    elif family == "conveyor":
        _conveyor_obstacles(occ, rng)
    elif family == "room":
        _room_obstacles(occ, rng)
    elif family == "shelf":
        _shelf_obstacles(occ, rng)

    if not (~occ).any():
        raise GenerationError(f"{family} generator produced no free space")

    main = _largest_component(occ)
    regions = _place_regions(occ, main, zone_rects, rng, n_labels)
    if seal_duplicate:
        regions.append(_sealed_duplicate(occ, main, regions, rng))

    name = f"{family}-{seed}" + ("-ood" if seal_duplicate else "")
    return WorldMap(name, occ, WORLD_SIZE, regions)


def _position(rng, lo, hi, cells):
    """``int(rng.integers(lo, hi))``, the same draw; a grid too small for the
    feature being placed leaves the range empty, which is a GenerationError
    naming ``cells``."""
    if hi <= lo:
        raise GenerationError(f"cells={cells} is too small for this family's layout")
    return int(rng.integers(lo, hi))


def _paint_rect(occ, r0, r1, c0, c1, value=True):
    occ[r0:r1, c0:c1] = value


def _drop_region_obstacles(occ, protected, rng):
    """Border + open zone rectangles + scattered blocks up to a fill target."""
    n = occ.shape[0]
    n_zones = int(rng.integers(ZONES[0], ZONES[1] + 1))
    zone_rects = []
    for _ in range(n_zones):
        for _attempt in range(200):
            zw = int(rng.integers(ZONE_SIDE[0], ZONE_SIDE[1] + 1))
            zh = int(rng.integers(ZONE_SIDE[0], ZONE_SIDE[1] + 1))
            c0 = _position(rng, 2, n - 2 - zw, n)
            r0 = _position(rng, 2, n - 2 - zh, n)
            if protected[max(r0 - 3, 0):r0 + zh + 3, max(c0 - 3, 0):c0 + zw + 3].any():
                continue
            protected[r0:r0 + zh, c0:c0 + zw] = True
            zone_rects.append((c0, r0, zw, zh))
            break
    lo, hi = FILL_RANGE
    target = float(rng.uniform(lo + 0.01, hi - 0.01))
    total = occ.size
    for _attempt in range(600):
        frac = occ.sum() / total
        if frac >= target - 0.004:
            break
        bw = int(rng.integers(BLOCK_SIDE[0], BLOCK_SIDE[1] + 1))
        bh = int(rng.integers(BLOCK_SIDE[0], BLOCK_SIDE[1] + 1))
        c0 = _position(rng, 2, n - 2 - bw, n)
        r0 = _position(rng, 2, n - 2 - bh, n)
        if protected[max(r0 - 2, 0):r0 + bh + 2, max(c0 - 2, 0):c0 + bw + 2].any():
            continue
        after = (occ.sum() + bw * bh) / total  # upper bound; overlap only lowers it
        if after > target:
            continue
        _paint_rect(occ, r0, r0 + bh, c0, c0 + bw)
    frac = occ.sum() / total
    if not (lo <= frac <= hi):
        raise GenerationError(f"drop_region fill {frac:.3f} outside [{lo}, {hi}]")
    return zone_rects


def _conveyor_obstacles(occ, rng):
    """Long horizontal belts with >= GAP_CELLS passages."""
    n = occ.shape[0]
    n_belts = int(rng.integers(BELTS[0], BELTS[1] + 1))
    for i in range(n_belts):
        th = int(rng.integers(BELT_THICKNESS[0], BELT_THICKNESS[1] + 1))
        yc = int(round((i + 1) * n / (n_belts + 1))) + int(rng.integers(-n // 16, n // 16 + 1))
        r0 = max(3, min(yc - th // 2, n - 3 - th))
        _paint_rect(occ, r0, r0 + th, 1, n - 1)
        n_gaps = int(rng.integers(1, 3))
        placed = []
        for _ in range(n_gaps):
            for _attempt in range(100):
                gw = int(rng.integers(GAP_CELLS, GAP_CELLS + 4))
                c0 = _position(rng, 3, n - 3 - gw, n)
                if any(abs(c0 - p) < gw + 6 for p in placed):
                    continue
                _paint_rect(occ, r0, r0 + th, c0, c0 + gw, value=False)
                placed.append(c0)
                break


def _room_obstacles(occ, rng):
    """k x k rooms separated by walls with one doorway per wall segment."""
    n = occ.shape[0]
    k = int(rng.integers(ROOMS_PER_SIDE[0], ROOMS_PER_SIDE[1] + 1))
    th = WALL_THICKNESS
    jitter = n // 20

    def split_positions():
        pos = []
        for j in range(1, k):
            p = int(round(j * n / k)) + int(rng.integers(-jitter, jitter + 1))
            pos.append(max(4, min(p, n - 4 - th)))
        return pos

    v_walls = split_positions()
    h_walls = split_positions()
    for x in v_walls:
        _paint_rect(occ, 1, n - 1, x, x + th)
    for y in h_walls:
        _paint_rect(occ, y, y + th, 1, n - 1)

    # carve one doorway per wall segment between consecutive crossings
    h_bounds = [1] + sorted(h_walls) + [n - 1]
    v_bounds = [1] + sorted(v_walls) + [n - 1]
    for x in v_walls:
        for s0, s1 in zip(h_bounds[:-1], h_bounds[1:]):
            lo, hi = s0 + 2, s1 - 2 - th
            if hi <= lo:
                continue
            dw = int(rng.integers(DOORWAY_CELLS[0], DOORWAY_CELLS[1] + 1))
            r0 = int(rng.integers(lo, max(hi - dw, lo) + 1))
            _paint_rect(occ, r0, r0 + dw, x, x + th, value=False)
    for y in h_walls:
        for s0, s1 in zip(v_bounds[:-1], v_bounds[1:]):
            lo, hi = s0 + 2, s1 - 2 - th
            if hi <= lo:
                continue
            dw = int(rng.integers(DOORWAY_CELLS[0], DOORWAY_CELLS[1] + 1))
            c0 = int(rng.integers(lo, max(hi - dw, lo) + 1))
            _paint_rect(occ, y, y + th, c0, c0 + dw, value=False)


def _shelf_obstacles(occ, rng):
    """Regular shelf rows; every aisle at least MIN_AISLE cells wide."""
    n = occ.shape[0]
    margin = MIN_AISLE
    r = 1 + margin
    while True:
        th = int(rng.integers(SHELF_THICKNESS[0], SHELF_THICKNESS[1] + 1))
        if r + th > n - 1 - margin:
            break
        _paint_rect(occ, r, r + th, 1 + margin, n - 1 - margin)
        n_cross = int(rng.integers(1, 3))
        placed = []
        for _ in range(n_cross):
            for _attempt in range(100):
                gw = int(rng.integers(MIN_AISLE, MIN_AISLE + 3))
                c0 = _position(rng, 1 + margin + 2, n - 1 - margin - 2 - gw, n)
                if any(abs(c0 - p) < gw + 8 for p in placed):
                    continue
                _paint_rect(occ, r, r + th, c0, c0 + gw, value=False)
                placed.append(c0)
                break
        r += th + int(rng.integers(MIN_AISLE, MIN_AISLE + 3))


def _region_free_at(occ, main, r0, c0, side):
    block = slice(r0, r0 + side), slice(c0, c0 + side)
    return bool((~occ[block]).all() and main[block].all())


def _place_regions(occ, main, zone_rects, rng, n_labels):
    """Place n_labels square regions in the main free component."""
    n = occ.shape[0]
    cw = WORLD_SIZE[0] / n
    labels = [VOCABULARY[i] for i in rng.permutation(len(VOCABULARY))[:n_labels]]
    regions = []
    centers = []
    side = REGION_SIDE
    min_sep_cells = REGION_SEPARATION / cw

    for idx, label in enumerate(labels):
        if idx < len(zone_rects):
            c0, r0, zw, zh = zone_rects[idx]
            cells = [(c, r) for r in range(r0, r0 + zh) for c in range(c0, c0 + zw)]
            free_cells = [(c, r) for c, r in cells if not occ[r, c] and main[r, c]]
            if len(free_cells) == len(cells):
                regions.append(SemanticRegion(label, tuple(cells)))
                centers.append((c0 + zw / 2, r0 + zh / 2))
                continue
        placed = False
        for _attempt in range(800):
            c0 = int(rng.integers(2, n - 2 - side))
            r0 = int(rng.integers(2, n - 2 - side))
            if not _region_free_at(occ, main, r0, c0, side):
                continue
            center = (c0 + side / 2, r0 + side / 2)
            if any(
                (center[0] - cc) ** 2 + (center[1] - cr) ** 2 < min_sep_cells**2
                for cc, cr in centers
            ):
                continue
            cells = tuple(
                (c, r) for r in range(r0, r0 + side) for c in range(c0, c0 + side)
            )
            regions.append(SemanticRegion(label, cells))
            centers.append(center)
            placed = True
            break
        if not placed:
            raise GenerationError(
                f"could not place region {label!r} with separation "
                f"{REGION_SEPARATION} after 800 attempts"
            )
    return regions


def _sealed_duplicate(occ, main, regions, rng):
    """Second instance of regions[0].label sealed inside a closed obstacle ring."""
    n = occ.shape[0]
    side = REGION_SIDE
    inner = side + 2          # free pocket side
    outer = inner + 4         # pocket plus 2-cell ring
    label = regions[0].label
    taken = np.zeros_like(occ)
    for reg in regions:
        for c, r in reg.cells:
            taken[r, c] = True
    for _attempt in range(800):
        c0 = int(rng.integers(2, n - 2 - outer))
        r0 = int(rng.integers(2, n - 2 - outer))
        patch = slice(r0, r0 + outer), slice(c0, c0 + outer)
        if occ[patch].any() or taken[patch].any() or not main[patch].all():
            continue
        occ[r0:r0 + outer, c0:c0 + outer] = True
        occ[r0 + 2:r0 + 2 + inner, c0 + 2:c0 + 2 + inner] = False
        rc = r0 + 2 + (inner - side) // 2
        cc = c0 + 2 + (inner - side) // 2
        cells = tuple((c, r) for r in range(rc, rc + side) for c in range(cc, cc + side))
        return SemanticRegion(label, cells)
    raise GenerationError("could not place a sealed duplicate region")


# ---------------------------------------------------------------------------
# codecs


def encode_map(worldmap: WorldMap) -> str:
    """Canonical JSON encoding; row 0 of occupancy is the bottom row."""
    doc = {
        "version": MAP_FORMAT_VERSION,
        "name": worldmap.name,
        "width_cells": worldmap.width_cells,
        "height_cells": worldmap.height_cells,
        "world_size": [worldmap.world_size[0], worldmap.world_size[1]],
        "occupancy": [
            "".join("1" if v else "0" for v in worldmap.occupancy[r])
            for r in range(worldmap.height_cells)
        ],
        "regions": [
            {"label": reg.label, "cells": [[c, r] for c, r in reg.cells]}
            for reg in worldmap.regions
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _require_keys(obj, allowed, required, where=""):
    if not isinstance(obj, dict):
        raise MapFormatError(where or "(document)", "expected a JSON object")
    for key in obj:
        if key not in allowed:
            raise MapFormatError(f"{where}.{key}" if where else key, "unknown field")
    for key in required:
        if key not in obj:
            raise MapFormatError(f"{where}.{key}" if where else key, "missing field")


def json_document(doc):
    """``doc`` parsed if it is JSON text (``str`` or ``bytes``), else as
    given; text that does not parse raises a MapFormatError."""
    if isinstance(doc, (str, bytes)):
        try:
            return json.loads(doc)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise MapFormatError("(document)", f"invalid JSON: {exc}") from exc
    return doc


def _build(make, *args, where=""):
    """``make(*args)``, with a ParameterError turned into a MapFormatError
    naming the same field under the document path ``where``."""
    try:
        return make(*args)
    except ParameterError as exc:  # the constructors name a field in each one
        raise MapFormatError(where + exc.field, str(exc).removeprefix(f"{exc.field} ")) from exc


def decode_map(doc) -> WorldMap:
    """Parse a map document (JSON text or dict); errors name the bad field.

    The document's shape is checked here; every value rule is
    ``SemanticRegion``'s or ``WorldMap``'s."""
    doc = json_document(doc)
    allowed = {"version", "name", "width_cells", "height_cells", "world_size", "occupancy", "regions"}
    _require_keys(doc, allowed, allowed)
    if doc["version"] != MAP_FORMAT_VERSION:
        raise MapFormatError("version", f"unsupported version {doc['version']!r}")
    width, height = doc["width_cells"], doc["height_cells"]
    for key, val in (("width_cells", width), ("height_cells", height)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise MapFormatError(key, "expected a positive integer")
    rows = doc["occupancy"]
    if not isinstance(rows, list) or len(rows) != height:
        raise MapFormatError("occupancy", f"expected {height} rows")
    # every row is checked before the grid exists, so the declared size
    # never drives an allocation the rows do not back
    for r, rowstr in enumerate(rows):
        if not isinstance(rowstr, str) or len(rowstr) != width:
            raise MapFormatError(f"occupancy[{r}]", f"expected a string of length {width}")
        if set(rowstr) - {"0", "1"}:
            raise MapFormatError(f"occupancy[{r}]", "expected only '0'/'1'")
    occ = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(height, width) == ord("1")
    if not isinstance(doc["regions"], list):
        raise MapFormatError("regions", "expected a list")
    regions = []
    for i, rdoc in enumerate(doc["regions"]):
        where = f"regions[{i}]"
        _require_keys(rdoc, {"label", "cells"}, {"label", "cells"}, where)
        regions.append(_build(SemanticRegion, rdoc["label"], rdoc["cells"], where=f"{where}."))
    return _build(WorldMap, doc["name"], occ, doc["world_size"], regions)


def save_map(worldmap: WorldMap, path) -> None:
    Path(path).write_text(encode_map(worldmap), encoding="utf-8")


def load_map(path) -> WorldMap:
    return decode_map(Path(path).read_text(encoding="utf-8"))


def encode_scenario(scenario: Scenario, map_path: str | None = None) -> str:
    """JSON encoding; the map is inlined unless ``map_path`` is given."""
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "map": map_path if map_path is not None else json.loads(encode_map(scenario.map)),
        "seed": int(scenario.seed),
        "robots": [
            {
                "id": r.id,
                "start": None if r.start is None else list(r.start),
                "instruction": r.instruction,
            }
            for r in scenario.robots
        ],
        "config": dict(scenario.config),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def decode_scenario(doc, base_dir=None) -> Scenario:
    """Parse a scenario document; a string ``map`` field is a file path
    resolved against ``base_dir``.  The document's shape is checked here;
    every value rule is ``Scenario``'s."""
    doc = json_document(doc)
    allowed = {"version", "map", "seed", "robots", "config"}
    _require_keys(doc, allowed, {"version", "map", "seed", "robots"})
    if doc["version"] != SCENARIO_FORMAT_VERSION:
        raise MapFormatError("version", f"unsupported version {doc['version']!r}")
    mapdoc = doc["map"]
    if isinstance(mapdoc, str):
        path = Path(mapdoc)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        if not path.is_file():
            raise MapFormatError("map", f"no map file at {str(path)!r}")
        worldmap = load_map(path)
    else:
        worldmap = decode_map(mapdoc)
    if not isinstance(doc["robots"], list):
        raise MapFormatError("robots", "expected a list")
    robots = []
    for i, rdoc in enumerate(doc["robots"]):
        where = f"robots[{i}]"
        _require_keys(rdoc, {"id", "start", "instruction"}, {"id", "instruction"}, where)
        robots.append(RobotSpec(rdoc["id"], rdoc["instruction"], rdoc.get("start")))
    return _build(Scenario, worldmap, robots, doc["seed"], doc.get("config", {}))


def save_scenario(scenario: Scenario, path, map_path=None) -> None:
    Path(path).write_text(encode_scenario(scenario, map_path), encoding="utf-8")


def load_scenario(path) -> Scenario:
    path = Path(path)
    return decode_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)
