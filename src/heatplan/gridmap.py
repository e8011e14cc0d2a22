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

_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INSTRUCTION_RE = re.compile(r"^move to the ([a-z0-9_]+)$")


@dataclass(frozen=True)
class SemanticRegion:
    """A labeled set of free cells acting as a goal / heat source."""

    label: str
    cells: tuple  # ((col, row), ...)

    def __post_init__(self):
        if not _LABEL_RE.match(self.label):
            raise ParameterError(f"bad region label {self.label!r}")
        if len(self.cells) == 0:
            raise ParameterError(f"region {self.label!r} has no cells")
        object.__setattr__(self, "cells", tuple((int(c), int(r)) for c, r in self.cells))
        if not _cells_4connected(self.cells):
            raise ParameterError(f"region {self.label!r} cells are not 4-connected")

    def centroid(self) -> tuple:
        cols = [c for c, _ in self.cells]
        rows = [r for _, r in self.cells]
        return (sum(cols) / len(cols), sum(rows) / len(rows))


def _cells_4connected(cells) -> bool:
    pts = np.asarray(cells, dtype=np.int64)
    lo = pts.min(axis=0)
    width, height = pts.max(axis=0) - lo + 1
    # k 4-connected cells have width + height <= k + 1; the check also keeps
    # the local grid below small when the cells are scattered
    if width + height - 1 > len(set(cells)):
        return False
    local = pts - lo
    inside = np.zeros((height, width), dtype=bool)
    inside[local[:, 1], local[:, 0]] = True
    return bool((hop_distances(inside, local[:1])[inside] >= 0).all())


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
        occupancy = np.asarray(occupancy, dtype=bool)
        if occupancy.ndim != 2 or occupancy.shape[0] < 1 or occupancy.shape[1] < 1:
            raise ParameterError("occupancy must be a non-empty 2D grid")
        self.name = str(name)
        self.height_cells, self.width_cells = occupancy.shape
        self.world_size = (float(world_size[0]), float(world_size[1]))
        if self.world_size[0] <= 0 or self.world_size[1] <= 0:
            raise ParameterError("world_size must be positive")
        self._occ = occupancy
        self._occ.setflags(write=False)
        self.regions = tuple(regions)
        self.cell_size = (
            self.world_size[0] / self.width_cells,
            self.world_size[1] / self.height_cells,
        )
        if not (~self._occ).any():
            raise ParameterError("map has no free cell")
        for reg in self.regions:
            for col, row in reg.cells:
                if not (0 <= col < self.width_cells and 0 <= row < self.height_cells):
                    raise ParameterError(
                        f"region {reg.label!r} cell ({col},{row}) out of bounds"
                    )
                if self._occ[row, col]:
                    raise ParameterError(
                        f"region {reg.label!r} cell ({col},{row}) lies on an obstacle"
                    )
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
    map: WorldMap
    robots: tuple
    seed: int = 0
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.robots or not all(isinstance(r, RobotSpec) for r in self.robots):
            raise ParameterError(f"robots must be a nonempty sequence of RobotSpec, got {self.robots!r}")
        for i, robot in enumerate(self.robots):
            _check_robot(robot, f"robots[{i}]")
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            raise ParameterError("robot ids must be unique")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ParameterError(f"seed must be an unsigned integer, got {self.seed!r}")
        start_owner = {}
        for robot in self.robots:
            if robot.start is not None:
                if not is_free(robot.start, self.map):
                    raise ParameterError(
                        f"robot {robot.id!r} start {robot.start} is not in free space"
                    )
                # pairwise guidance is undefined for robots on the same point
                start = (float(robot.start[0]), float(robot.start[1]))
                if start in start_owner:
                    raise ParameterError(
                        f"robots {start_owner[start]!r} and {robot.id!r} share start {start}"
                    )
                start_owner[start] = robot.id
            resolve_goal_regions(robot.instruction, self.map)  # raises if unknown


def _check_robot(robot: RobotSpec, where: str) -> None:
    """Raise a ParameterError naming the first malformed field of ``robot``."""
    if not isinstance(robot.id, str) or not robot.id:
        raise ParameterError(f"{where}.id must be a nonempty string, got {robot.id!r}")
    if not isinstance(robot.instruction, str):
        raise ParameterError(f"{where}.instruction must be a string, got {robot.instruction!r}")
    start = robot.start
    if start is None:
        return
    try:
        point = not isinstance(start, (str, bytes)) and len(start) == 2 and all(_is_real(v) for v in start)
    except TypeError:  # no length
        point = False
    if not point:
        raise ParameterError(f"{where}.start must be None or a point (x, y) of finite numbers, got {start!r}")


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


def _require_keys(obj, allowed, required, where):
    for key in obj:
        if key not in allowed:
            raise MapFormatError(f"{where}.{key}" if where else key, "unknown field")
    for key in required:
        if key not in obj:
            raise MapFormatError(f"{where}.{key}" if where else key, "missing field")


def _is_real(v) -> bool:
    """True for a non-bool number that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def decode_map(doc) -> WorldMap:
    """Parse a map document (JSON text or dict); errors name the bad field."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MapFormatError("(document)", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapFormatError("(document)", "expected a JSON object")
    allowed = {"version", "name", "width_cells", "height_cells", "world_size", "occupancy", "regions"}
    _require_keys(doc, allowed, allowed, "")
    if doc["version"] != MAP_FORMAT_VERSION:
        raise MapFormatError("version", f"unsupported version {doc['version']!r}")
    if not isinstance(doc["name"], str):
        raise MapFormatError("name", "expected a string")
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
    ws = doc["world_size"]
    # the rows bound width and height; each cell must have a positive float size
    if (
        not isinstance(ws, list)
        or len(ws) != 2
        or not all(_is_real(v) and float(v) / n > 0 for v, n in zip(ws, (width, height)))
    ):
        raise MapFormatError("world_size", "expected [width, height] of positive numbers")
    if not isinstance(doc["regions"], list):
        raise MapFormatError("regions", "expected a list")
    regions = []
    for i, rdoc in enumerate(doc["regions"]):
        where = f"regions[{i}]"
        if not isinstance(rdoc, dict):
            raise MapFormatError(where, "expected an object")
        _require_keys(rdoc, {"label", "cells"}, {"label", "cells"}, where)
        label = rdoc["label"]
        if not isinstance(label, str) or not _LABEL_RE.match(label):
            raise MapFormatError(f"{where}.label", "expected a lowercase token")
        cells = rdoc["cells"]
        if not isinstance(cells, list) or not cells:
            raise MapFormatError(f"{where}.cells", "expected a nonempty list")
        parsed = []
        for j, cell in enumerate(cells):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in cell)
            ):
                raise MapFormatError(f"{where}.cells[{j}]", "expected [col, row] integers")
            col, row = cell
            if not (0 <= col < width and 0 <= row < height):
                raise MapFormatError(f"{where}.cells[{j}]", "cell out of bounds")
            if occ[row, col]:
                raise MapFormatError(f"{where}.cells[{j}]", "cell lies on an obstacle")
            parsed.append((col, row))
        try:
            regions.append(SemanticRegion(label, tuple(parsed)))
        except ParameterError as exc:
            raise MapFormatError(where, str(exc)) from exc
    try:
        return WorldMap(doc["name"], occ, (ws[0], ws[1]), regions)
    except ParameterError as exc:
        raise MapFormatError("(document)", str(exc)) from exc


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
                "start": None if r.start is None else [r.start[0], r.start[1]],
                "instruction": r.instruction,
            }
            for r in scenario.robots
        ],
        "config": dict(scenario.config),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def decode_scenario(doc, base_dir=None) -> Scenario:
    """Parse a scenario document; a string ``map`` field is a file path
    resolved against ``base_dir``."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MapFormatError("(document)", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapFormatError("(document)", "expected a JSON object")
    allowed = {"version", "map", "seed", "robots", "config"}
    _require_keys(doc, allowed, {"version", "map", "seed", "robots"}, "")
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
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise MapFormatError("seed", "expected an unsigned integer")
    if not isinstance(doc["robots"], list) or not doc["robots"]:
        raise MapFormatError("robots", "expected a nonempty list")
    robots = []
    for i, rdoc in enumerate(doc["robots"]):
        where = f"robots[{i}]"
        if not isinstance(rdoc, dict):
            raise MapFormatError(where, "expected an object")
        _require_keys(rdoc, {"id", "start", "instruction"}, {"id", "instruction"}, where)
        rid = rdoc["id"]
        if not isinstance(rid, str) or not rid:
            raise MapFormatError(f"{where}.id", "expected a nonempty string")
        start = rdoc.get("start")
        if start is not None:
            if (
                not isinstance(start, list)
                or len(start) != 2
                or not all(_is_real(v) for v in start)
            ):
                raise MapFormatError(f"{where}.start", "expected [x, y] or null")
            start = (float(start[0]), float(start[1]))
            if not is_free(start, worldmap):
                raise MapFormatError(f"{where}.start", "start is not in free space")
        instr = rdoc["instruction"]
        if not isinstance(instr, str) or not instr.strip():
            raise MapFormatError(f"{where}.instruction", "expected a nonempty string")
        try:
            resolve_goal_regions(instr, worldmap)
        except UnknownLabelError as exc:
            raise MapFormatError(f"{where}.instruction", str(exc)) from exc
        robots.append(RobotSpec(rid, instr, start))
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise MapFormatError("config", "expected an object")
    for key, val in config.items():
        if not _is_real(val):
            raise MapFormatError(f"config.{key}", "expected a finite number")
    try:
        return Scenario(worldmap, tuple(robots), seed, dict(config))
    except ParameterError as exc:
        raise MapFormatError("(document)", str(exc)) from exc


def save_scenario(scenario: Scenario, path, map_path=None) -> None:
    Path(path).write_text(encode_scenario(scenario, map_path), encoding="utf-8")


def load_scenario(path) -> Scenario:
    path = Path(path)
    return decode_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)
