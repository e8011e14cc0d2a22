"""Annealed Langevin planning over heat score fields with inter-robot guidance.

Each outer step t = T..1 interpolates every robot's score field at its current
position and runs K annealing updates

    x <- x + 0.5 * alpha_t^2 * (s + beta * g) + alpha_t * eps

where g is the repulsive direction of the pairwise proximity cost (active
below d_margin) and eps is a per-robot seeded Gaussian, drawn for all T*K
updates at once when the plan starts.  The sampled distribution is zero
inside obstacles and on configurations closer than d_safe: a proposal is cut
short at the first obstacle cell on its way (an exact cell walk, skipped when
no obstacle lies within one cell of the move's cell box), and moves that
breach the hard separation are rejected (the mover keeps its previous
position).  A separate validator, not the sampler, is the arbiter of success.

A plan has a few robots, so an update runs on Python floats, robot by robot
and pair by pair: numpy's fixed cost per call outweighs the arithmetic on
(N, 2) arrays that small.  The loops keep the IEEE operations, and their
order, of the whole-array expressions that the tests keep as references
(tests/oracles.py), so every result byte is theirs.  The pair loops are
O(N^2) interpreted Python, and near N = 25 an update costs what whole-array
code costs.

For the same reason positions stay Python lists between updates.
``langevin_step`` and ``interpolate`` take a ``list`` of N [x, y] pairs of
floats and return a list, with the bits that an (N, 2) array gives, and
``_clamp_to_free`` takes and returns (x, y) pairs.  ``plan`` turns the
starts into lists once and each outer step's noise once, and makes the
micro-step history an array once, at the end.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError, SingularConfigurationError
from .gridmap import Scenario, WorldMap, resolve_goal_regions
from .heatfield import (
    DEFAULT_LOG_FLOOR,
    DEFAULT_SIGMA_MAX,
    DEFAULT_SIGMA_MIN,
    DEFAULT_STEP_RATIO,
    FieldCache,
    NoiseSchedule,
    build_schedule,
    interpolate,
)

SEGMENT_SAMPLES = 9  # 8 interior points plus the segment endpoint
START_ATTEMPTS = 1000  # draws of a missing start before plan gives up


@dataclass(frozen=True)
class PlannerConfig:
    T: int = 20
    K: int = 16
    beta: float = 2.0
    d_safe: float = 0.10
    d_margin: float = 0.12
    step_ratio: float = DEFAULT_STEP_RATIO
    sigma_min: float = DEFAULT_SIGMA_MIN
    sigma_max: float = DEFAULT_SIGMA_MAX
    seed: Optional[int] = None
    time_limit: float = 180.0
    goal_tol: float = 0.05
    log_floor: float = DEFAULT_LOG_FLOOR

    def __post_init__(self):
        for f in dataclass_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, bool):
                raise ParameterError(f"must be a number, got {val!r}", field=f.name)
            if f.name in ("T", "K", "seed"):
                if not (isinstance(val, numbers.Integral) or (f.name == "seed" and val is None)):
                    raise ParameterError(f"must be an integer, got {val!r}", field=f.name)
            elif not (isinstance(val, numbers.Real) and math.isfinite(val)):
                raise ParameterError(f"must be a finite number, got {val!r}", field=f.name)
        if self.T < 2:
            raise ParameterError("must be >= 2", field="T")
        if self.K < 1:
            raise ParameterError("must be >= 1", field="K")
        if self.beta < 0:
            raise ParameterError("must be >= 0", field="beta")
        if not (0 < self.d_safe < self.d_margin):
            raise ParameterError(f"must satisfy 0 < d_safe < d_margin, got {self.d_safe!r} and {self.d_margin!r}",
                                 field="d_safe" if self.d_safe <= 0 else "d_margin")
        if not (0 < self.sigma_min < self.sigma_max):
            raise ParameterError(f"must satisfy 0 < sigma_min < sigma_max, got {self.sigma_min!r} and {self.sigma_max!r}",
                                 field="sigma_min" if self.sigma_min <= 0 else "sigma_max")
        if self.step_ratio <= 0:
            raise ParameterError("must be positive", field="step_ratio")
        if self.time_limit <= 0:
            raise ParameterError("must be positive", field="time_limit")
        if self.goal_tol < 0:
            raise ParameterError("must be >= 0", field="goal_tol")
        if not (0 < self.log_floor < 1):
            raise ParameterError("must be in (0, 1)", field="log_floor")
        if self.seed is not None and int(self.seed) < 0:
            raise ParameterError("must be unsigned", field="seed")

    def schedule(self) -> NoiseSchedule:
        return build_schedule(self.T, self.sigma_min, self.sigma_max, self.step_ratio)

    def with_overrides(self, overrides: dict) -> "PlannerConfig":
        """Apply a scenario/CLI override dict; unknown keys are rejected."""
        if not overrides:
            return self
        known = {f.name: f.type for f in dataclass_fields(self)}
        bad = [k for k in overrides if k not in known]
        if bad:
            raise ParameterError(f"unknown planner parameter(s): {', '.join(sorted(bad))}")
        coerced = {}
        for key, val in overrides.items():
            if key in ("T", "K", "seed"):
                # a whole float (JSON's 10.0) becomes an int; anything else is
                # left for __post_init__ to accept or reject by name
                coerced[key] = int(val) if isinstance(val, float) and val.is_integer() else val
            elif isinstance(val, numbers.Real) and not isinstance(val, bool):
                coerced[key] = float(val)
            else:
                coerced[key] = val  # for __post_init__ to reject by name
        return replace(self, **coerced)


@dataclass(frozen=True, eq=False)
class Trajectory:
    robot_id: str
    waypoints: np.ndarray    # (T+1, 2): initial position plus one per outer step
    micro_steps: np.ndarray  # (T*K, 2): every Langevin iterate


@dataclass(eq=False)
class PlanResult:
    scenario: Scenario
    trajectories: tuple
    goal_reached: tuple
    static_violations: list
    inter_robot_violations: list
    planning_time_s: float
    seed: int
    timed_out: bool = False

    @property
    def success(self) -> bool:
        return (
            not self.timed_out
            and all(self.goal_reached)
            and not self.static_violations
            and not self.inter_robot_violations
        )


# ---------------------------------------------------------------------------
# pairwise cost and guidance


def _guidance(xy: list, d_margin: float) -> list:
    """``interrobot_guidance`` on a list of N [x, y] Python floats; returns
    N [gx, gy] lists.

    Each unordered pair is visited once, i ascending, then j ascending: its
    term is added to robot i and subtracted from robot j, so each robot gets
    its terms in index order.  A pair at or beyond ``d_margin`` would add
    only +-0.0, which leaves every such sum's bits as they are, so it is
    skipped.
    """
    n = len(xy)
    g = [[0.0, 0.0] for _ in range(n)]
    for i in range(n):
        xi, yi = xy[i]
        gi = g[i]
        for j in range(i + 1, n):
            dx = xi - xy[j][0]
            dy = yi - xy[j][1]
            d = math.sqrt(dx * dx + dy * dy)
            if d == 0.0:
                raise SingularConfigurationError("two robots occupy the same point")
            if d < d_margin:
                w = 1.0 / (d * d)
                tx, ty = w * dx, w * dy
                gi[0] += tx
                gi[1] += ty
                gj = g[j]
                gj[0] -= tx
                gj[1] -= ty
    return g


def interrobot_guidance(positions, d_margin: float) -> np.ndarray:
    """Repulsive direction, the negative gradient of the proximity cost
    (the sum over pairs of max(0, -log(d / d_margin)), which
    ``tests/oracles.interrobot_cost`` computes).

    Pairs with d < d_margin contribute (x_i - x_j) / d^2 to robot i.  Each
    robot's terms are added in robot index order, so with three or more
    neighbours within ``d_margin`` a permutation of the robots can round its
    sum differently: the guidance, and the Langevin step, are then not
    exactly permutation-equivariant (``plan`` runs robots in id order).
    Coincident robots raise SingularConfigurationError; positions must be
    finite.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) < 1:
        raise ParameterError("positions must be an (N, 2) array with N >= 1")
    if not np.isfinite(pos).all():
        raise ParameterError("positions must be finite")
    return np.array(_guidance(pos.tolist(), d_margin), dtype=np.float64)


# ---------------------------------------------------------------------------
# feasibility checks shared by the sampler and the validator


def _points_free(worldmap: WorldMap, pts: np.ndarray) -> np.ndarray:
    """Vectorized is_free over an (M, 2) array; out-of-domain counts as not free."""
    w, h = worldmap.world_size
    x, y = pts[..., 0], pts[..., 1]
    inside = (x >= 0) & (x < w) & (y >= 0) & (y < h)
    cols = np.clip((x / worldmap.cell_size[0]).astype(np.int64), 0, worldmap.width_cells - 1)
    rows = np.clip((y / worldmap.cell_size[1]).astype(np.int64), 0, worldmap.height_cells - 1)
    return inside & ~worldmap.occupancy[rows, cols]


_SEG_FRACTIONS = np.arange(1, SEGMENT_SAMPLES + 1, dtype=np.float64) / SEGMENT_SAMPLES


def _clamp_to_free(worldmap: WorldMap, a, b) -> tuple:
    """Walk the exact grid supercover from ``a`` toward ``b``; stop just short
    of the first obstacle cell.  The realized move therefore never crosses a
    wall, however long the proposal, and a blocked robot slides up to the
    boundary instead of freezing.  ``a`` and ``b`` are (x, y) pairs; the
    result is an (x, y) pair of Python floats.
    """
    hx, hy = worldmap.cell_size
    W, H = worldmap.width_cells, worldmap.height_cells
    occ = worldmap.occupancy
    # Python floats: the same IEEE arithmetic as numpy scalars, but cheaper
    ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    col = min(int(ax / hx), W - 1)
    row = min(int(ay / hy), H - 1)
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    # parametric t at which the ray crosses the next cell boundary per axis
    tx = ((col + (step_c > 0)) * hx - ax) / dx if dx != 0 else math.inf
    ty = ((row + (step_r > 0)) * hy - ay) / dy if dy != 0 else math.inf
    dtx = abs(hx / dx) if dx != 0 else math.inf
    dty = abs(hy / dy) if dy != 0 else math.inf

    def stop_at(t):
        t = max(0.0, t - 1e-9)
        px, py = ax + t * dx, ay + t * dy
        if occ[min(int(py / hy), H - 1), min(int(px / hx), W - 1)]:
            return ax, ay
        return px, py

    def reach_b(t):
        # the walk ends at t >= 1, yet b may lie exactly on the face of an
        # obstacle cell that the walk never entered
        if occ[min(int(by / hy), H - 1), min(int(bx / hx), W - 1)]:
            return stop_at(min(t, 1.0))
        return bx, by

    while True:
        if tx < ty - 1e-15:
            t, col = tx, col + step_c
            if t >= 1.0 or not (0 <= col < W):
                return reach_b(t)
            if occ[row, col]:
                return stop_at(t)
            tx += dtx
        elif ty < tx - 1e-15:
            t, row = ty, row + step_r
            if t >= 1.0 or not (0 <= row < H):
                return reach_b(t)
            if occ[row, col]:
                return stop_at(t)
            ty += dty
        else:
            # exact corner crossing: conservative, both side cells must be free
            t = tx
            if t >= 1.0:
                return reach_b(t)
            nc, nr = col + step_c, row + step_r
            if not (0 <= nc < W and 0 <= nr < H):
                return reach_b(t)
            if occ[row, nc] or occ[nr, col] or occ[nr, nc]:
                return stop_at(t)
            col, row = nc, nr
            tx += dtx
            ty += dty


def _effective_level(ladder: dict, t: int, cell, t_max: int):
    """Smallest level >= t whose field support covers the cell.

    Fine-t fields cover only the heat's reach; a robot outside follows the
    coarsest-necessary field (and its step size) until it catches up.  In a
    sealed component no level is supported and the robot keeps level t with
    a zero score.
    """
    col, row = cell
    for tt in range(t, t_max + 1):
        f = ladder[tt]
        if f.supported is None or f.supported[row, col]:
            return tt, f
    return t, ladder[t]


def langevin_step(
    positions,
    t: int,
    ladders,
    schedule: NoiseSchedule,
    config: PlannerConfig,
    noise=None,
):
    """One synchronous annealing update of all robots' (N, 2) positions at
    level t, from a common snapshot; returns the new positions.

    ``ladders`` holds each robot's {t: ScoreField}.  A robot outside its
    level's field support escalates to the smallest covering level and uses
    that level's alpha.  One ``interpolate`` call reads every robot's score,
    each from its own effective-level field.  ``noise`` holds this update's
    (N, 2) standard normals, one row per robot, or None for a noiseless
    update.  A move is walked cell by cell (``_clamp_to_free``) only when an
    obstacle lies in its cell box widened by one cell; otherwise the walk
    would return the proposal unchanged.

    ``positions`` is an (N, 2) array, and the result is a new one; or it is
    a ``list`` of N [x, y] pairs of floats, and the result is a new list of
    N [x, y] lists (a robot whose move is reverted gets its input pair
    back).  ``noise`` may be either form too.  Lists are the form ``plan``
    passes from one update to the next, so no array is made per update;
    both forms give the same bits.

    The update runs on Python floats, robot by robot and pair by pair,
    because numpy's fixed cost per call outweighs the arithmetic on a few
    rows.  Its IEEE operations, and their order, are those of the array
    expressions x + ((0.5*alpha)*alpha)*(s + beta*g) + alpha*eps and
    minimum(maximum(0, x), bound).  The pair loops are O(N^2) interpreted
    Python: near N = 25 robots this costs as much as whole-array code, and
    past that it costs more.
    """
    as_list = isinstance(positions, list)
    xy = positions if as_list else _float_rows(positions, "positions")
    n = len(xy)
    if n == 0:
        raise ParameterError("must hold at least one robot", field="positions")
    if len(ladders) != n:
        raise ParameterError(f"holds {len(ladders)} ladders for {n} robots", field="ladders")
    if not 1 <= t <= schedule.T:
        raise ParameterError(f"must be in 1..{schedule.T}, got {t!r}", field="t")
    eps = noise if noise is None or isinstance(noise, list) else _float_rows(noise, "noise")
    if eps is not None and len(eps) != n:
        raise ParameterError(f"has {len(eps)} rows for {n} robots", field="noise")
    worldmap = ladders[0][t].map
    W, H = worldmap.width_cells, worldmap.height_cells
    hx, hy = worldmap.cell_size
    w, h = worldmap.world_size
    bound_x, bound_y = w * (1 - 1e-12), h * (1 - 1e-12)

    # conditional expressions in place of min and max, which cost more here
    # than the arithmetic
    cells, levels, fields = [], [], []
    try:
        for (x, y), ladder in zip(xy, ladders):
            if not (0.0 <= x < w and 0.0 <= y < h):
                raise DomainError("robot position outside the world rectangle")
            col, row = int(x / hx), int(y / hy)
            cell = (col if col < W else W - 1, row if row < H else H - 1)
            level, field = _effective_level(ladder, t, cell, schedule.T)
            cells.append(cell)
            levels.append(level)
            fields.append(field)
    except (TypeError, ValueError) as exc:  # a row that is not a pair of numbers
        raise ParameterError(f"must hold [x, y] pairs of numbers: {exc}", field="positions") from exc
    drift = interpolate(fields, xy)
    if n > 1 and config.beta > 0:
        beta = config.beta
        for d, (gx, gy) in zip(drift, _guidance(xy, config.d_margin)):
            d[0] += beta * gx
            d[1] += beta * gy

    new = []
    for i, ((x, y), (sx, sy)) in enumerate(zip(xy, drift)):
        a = schedule.alpha.item(levels[i] - 1)
        half_a2 = 0.5 * a * a
        px = x + half_a2 * sx
        py = y + half_a2 * sy
        if eps is not None:
            px += a * eps[i][0]
            py += a * eps[i][1]
        # maximum(0, p) then minimum(p, bound): -0.0 and NaN pass as they are
        px = px if not px < 0.0 else 0.0
        px = bound_x if px > bound_x else px
        py = py if not py < 0.0 else 0.0
        py = bound_y if py > bound_y else py
        # zero-density regions are never entered: advance the robot along
        # its proposal until the exact cell walk meets an obstacle.  The walk
        # can end one cell beyond either end's cell when an end lies on a
        # cell face, so the box is widened by one cell; with no obstacle in
        # it the walk would return the proposal as it is (and a robot that
        # did not move stays put either way).
        c0, r0 = cells[i]
        c1, r1 = int(px / hx), int(py / hy)
        c1, r1 = (c1 if c1 < W else W - 1), (r1 if r1 < H else H - 1)
        if c0 > c1:
            c0, c1 = c1, c0
        if r0 > r1:
            r0, r1 = r1, r0
        if worldmap.obstacles_in(c0 - 1 if c0 else 0, r0 - 1 if r0 else 0,
                                 c1 + 2 if c1 + 2 < W else W, r1 + 2 if r1 + 2 < H else H):
            px, py = _clamp_to_free(worldmap, (x, y), (px, py))
        new.append([px, py])

    # reject moves that breach the hard pairwise separation; symmetric in the
    # pair, so the update stays permutation-equivariant
    d_safe = config.d_safe
    for _round in range(n + 1):
        if n < 2:
            break
        bad = [False] * n
        for i in range(n):
            xi, yi = new[i]
            for j in range(i + 1, n):
                dx = xi - new[j][0]
                dy = yi - new[j][1]
                if math.sqrt(dx * dx + dy * dy) <= d_safe:
                    bad[i] = bad[j] = True
        # compared by component: a sequence compare would call a NaN equal to itself
        revert = [k for k in range(n) if bad[k] and (new[k][0] != xy[k][0] or new[k][1] != xy[k][1])]
        if not revert:
            break
        for k in revert:
            new[k] = xy[k]
    return new if as_list else np.array(new, dtype=np.float64)


def _float_rows(rows, name: str) -> list:
    """An (N, 2) array-like as N [x, y] lists of Python floats; any other
    shape raises a ParameterError naming ``name``."""
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"must be an (N, 2) array of numbers: {exc}", field=name) from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError(f"must be an (N, 2) array, got shape {arr.shape}", field=name)
    return arr.tolist()


# ---------------------------------------------------------------------------
# full plan


def _robot_rng(seed: int, robot_id: str) -> np.random.Generator:
    digest = hashlib.sha256(robot_id.encode("utf-8")).digest()
    rid = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), rid]))


def _instruction_label(instruction: str, worldmap: WorldMap) -> str:
    return resolve_goal_regions(instruction, worldmap)[0].label


def _sample_free_start(worldmap: WorldMap, rng: np.random.Generator) -> np.ndarray:
    rows, cols = np.nonzero(worldmap.free)
    idx = int(rng.integers(len(rows)))
    jx, jy = rng.random(2)
    hx, hy = worldmap.cell_size
    return np.array([(cols[idx] + jx) * hx, (rows[idx] + jy) * hy])


def _separated_starts(robots, index, worldmap: WorldMap, rngs, d_safe: float) -> np.ndarray:
    """(N, 2) start positions, every pair more than ``d_safe`` apart.

    Given starts are kept, and two of them at or within ``d_safe`` raise a
    ParameterError naming both robots.  A missing start is drawn from its
    robot's own stream, in list order, and redrawn until it clears every
    start placed before it.  ``index[i]`` is the scenario's index of
    ``robots[i]``: an error's ``field`` is ``robots[j].start`` with j the
    index of the pair's later robot, or of the robot that found no start.
    """
    start = np.empty((len(robots), 2), dtype=np.float64)
    given = [i for i, r in enumerate(robots) if r.start is not None]
    for i in given:
        start[i] = robots[i].start
    for a, i in enumerate(given):
        for j in given[a + 1:]:
            if np.hypot(*(start[i] - start[j])) <= d_safe:
                raise ParameterError(
                    f"robots {robots[i].id!r} and {robots[j].id!r} start within d_safe={d_safe:g}",
                    field=f"robots[{max(index[i], index[j])}].start",
                )
    placed = list(given)
    for i, robot in enumerate(robots):
        if robot.start is not None:
            continue
        for _attempt in range(START_ATTEMPTS):
            start[i] = _sample_free_start(worldmap, rngs[i])
            if all(np.hypot(*(start[i] - start[j])) > d_safe for j in placed):
                break
        else:
            raise ParameterError(
                f"robot {robot.id!r}: no start more than d_safe={d_safe:g} from the others "
                f"in {START_ATTEMPTS} draws",
                field=f"robots[{index[i]}].start",
            )
        placed.append(i)
    return start


def plan(
    scenario: Scenario,
    config: PlannerConfig | None = None,
    cache: FieldCache | None = None,
) -> PlanResult:
    """Run the full annealed inference loop for every robot in the scenario.

    The scenario's ``config`` overrides ``config``.  Each robot's noise for
    all T*K micro-steps is drawn from its own stream once its start is
    placed; the last micro-step drops the noise term.  Starts must be more than ``d_safe`` apart: given
    ones that are not raise a ParameterError, and missing ones are redrawn
    until they are (see ``_separated_starts``).
    """
    t_start = time.perf_counter()
    base = config if config is not None else PlannerConfig()
    cfg = base.with_overrides(scenario.config)
    worldmap = scenario.map
    if cache is None:
        cache = FieldCache()
    schedule = cfg.schedule()
    seed = cfg.seed if cfg.seed is not None else scenario.seed

    # canonical id order makes the float accumulation order, and therefore the
    # trajectories, independent of how the scenario lists its robots
    order = sorted(range(len(scenario.robots)), key=lambda i: scenario.robots[i].id)
    robots = [scenario.robots[i] for i in order]
    n = len(robots)

    ladders = [
        cache.fields(worldmap, _instruction_label(r.instruction, worldmap), schedule, cfg.log_floor)
        for r in robots
    ]
    rngs = [_robot_rng(seed, r.id) for r in robots]

    start = _separated_starts(robots, order, worldmap, rngs, cfg.d_safe)
    # (T*K, N, 2); the same numbers as T*K successive standard_normal(2) draws
    noise = np.stack([rng.standard_normal((cfg.T * cfg.K, 2)) for rng in rngs], axis=1)
    # positions pass from one micro-step to the next as lists, and each outer
    # step's noise becomes lists when the step starts; the history keeps the
    # floats in one flat list.  Lists of lists kept for the whole plan would
    # be traversed and promoted by the cyclic garbage collector, whose full
    # collections then land inside plans.
    positions = start.tolist()
    micro = []
    steps = 0
    timed_out = False
    for t in range(cfg.T, 0, -1):
        if time.perf_counter() - t_start > cfg.time_limit:
            timed_out = True
            break
        eps = noise[steps:steps + cfg.K].tolist()
        for k in range(1, cfg.K + 1):
            last = t == 1 and k == cfg.K
            positions = langevin_step(positions, t, ladders, schedule, cfg, None if last else eps[k - 1])
            steps += 1
            for row in positions:
                micro += row

    ms = np.array(micro, dtype=np.float64).reshape(steps, n, 2)
    wp = np.concatenate([start[None], ms[cfg.K - 1::cfg.K]])  # start plus one per outer step
    trajectories = tuple(
        Trajectory(robot_id=robots[i].id, waypoints=wp[:, i, :].copy(), micro_steps=ms[:, i, :].copy())
        for i in range(n)
    )

    if timed_out:
        static_v, inter_v, goals = [], [], tuple(False for _ in robots)
    else:
        static_v, inter_v, goals = validate_plan(trajectories, scenario, cfg)

    # restore the scenario's robot order
    inv = {robots[i].id: i for i in range(n)}
    ordered_traj = tuple(trajectories[inv[r.id]] for r in scenario.robots)
    ordered_goals = tuple(goals[inv[r.id]] for r in scenario.robots)

    return PlanResult(
        scenario=scenario,
        trajectories=ordered_traj,
        goal_reached=ordered_goals,
        static_violations=static_v,
        inter_robot_violations=inter_v,
        planning_time_s=time.perf_counter() - t_start,
        seed=int(seed),
        timed_out=timed_out,
    )


# ---------------------------------------------------------------------------
# validation


def _point_to_region_distance(p, region, worldmap: WorldMap) -> float:
    hx, hy = worldmap.cell_size
    cells = np.asarray(region.cells, dtype=np.float64)  # (M, 2) as (col, row)
    x0 = cells[:, 0] * hx
    y0 = cells[:, 1] * hy
    dx = np.maximum(np.maximum(x0 - p[0], p[0] - (x0 + hx)), 0.0)
    dy = np.maximum(np.maximum(y0 - p[1], p[1] - (y0 + hy)), 0.0)
    return float(np.min(np.hypot(dx, dy)))


def pair_distances(trajectories):
    """Per-micro-step distance of every robot pair: [((i, j), (n_micro,) array)]
    for i < j in trajectory order."""
    stacked = np.stack([tr.micro_steps for tr in trajectories])  # (N, n_micro, 2)
    n = len(stacked)
    return [
        ((i, j), np.sqrt(((stacked[i] - stacked[j]) ** 2).sum(axis=1)))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def validate_plan(trajectories, scenario: Scenario, config: PlannerConfig):
    """Check static freedom, pairwise separation and goal membership.

    Returns (static_violations, inter_robot_violations, goal_reached).
    Static: every micro-step position plus 8 evenly spaced points between
    consecutive micro-steps must be free.  Inter-robot: pairwise distance at
    every micro-step index must exceed d_safe.  Goal: the final position lies
    inside a resolved region or within goal_tol of its nearest cell.
    """
    if not trajectories:
        raise ParameterError("no trajectories to validate")
    counts = {len(tr.micro_steps) for tr in trajectories}
    if len(counts) != 1:
        raise ParameterError("trajectories have mismatched micro-step counts")
    worldmap = scenario.map
    n_micro = counts.pop()

    static_violations = []
    for tr in trajectories:
        path = np.vstack([tr.waypoints[0:1], tr.micro_steps])  # (n_micro+1, 2)
        if n_micro == 0:
            continue
        a, b = path[:-1], path[1:]
        # (SEGMENT_SAMPLES, n_micro, 2): interior samples then the endpoint
        pts = a[None, :, :] + _SEG_FRACTIONS[:, None, None] * (b - a)[None, :, :]
        ok = _points_free(worldmap, pts.reshape(-1, 2)).reshape(SEGMENT_SAMPLES, n_micro)
        bad_steps = np.nonzero(~ok.all(axis=0))[0]
        for step in bad_steps:
            first_bad = int(np.nonzero(~ok[:, step])[0][0])
            where = pts[first_bad, step]
            static_violations.append(
                {"robot": tr.robot_id, "step": int(step), "position": [float(where[0]), float(where[1])]}
            )

    inter_violations = []
    if len(trajectories) > 1 and n_micro > 0:
        for (i, j), d in pair_distances(trajectories):
            a, b = trajectories[i], trajectories[j]
            for step in np.nonzero(d <= config.d_safe)[0]:
                inter_violations.append(
                    {
                        "robots": [a.robot_id, b.robot_id],
                        "step": int(step),
                        "positions": [
                            [float(v) for v in a.micro_steps[step]],
                            [float(v) for v in b.micro_steps[step]],
                        ],
                        "distance": float(d[step]),
                    }
                )
        inter_violations.sort(key=lambda v: (v["step"], v["robots"]))

    by_id = {r.id: r for r in scenario.robots}
    goal_reached = []
    for tr in trajectories:
        robot = by_id[tr.robot_id]
        regions = resolve_goal_regions(robot.instruction, worldmap)
        final = tr.micro_steps[-1] if n_micro else tr.waypoints[-1]
        dist = min(_point_to_region_distance(final, reg, worldmap) for reg in regions)
        goal_reached.append(dist <= config.goal_tol)
    return static_violations, inter_violations, tuple(goal_reached)


# ---------------------------------------------------------------------------
# serialization


def result_to_dict(result: PlanResult, include_timing: bool = True, include_micro: bool = False) -> dict:
    scenario = result.scenario
    doc = {
        "scenario": {
            "map_name": scenario.map.name,
            "map_hash": scenario.map.content_hash(),
            "seed": int(scenario.seed),
            "robots": [
                {
                    "id": r.id,
                    "instruction": r.instruction,
                    "start": None if r.start is None else list(r.start),
                }
                for r in scenario.robots
            ],
        },
        "seed": result.seed,
        "success": result.success,
        "timed_out": result.timed_out,
        "robots": [],
        "violations": {
            "static": result.static_violations,
            "inter_robot": result.inter_robot_violations,
        },
    }
    if include_timing:
        doc["planning_time_s"] = float(result.planning_time_s)
    for tr, reached in zip(result.trajectories, result.goal_reached):
        entry = {
            "id": tr.robot_id,
            "goal_reached": bool(reached),
            "waypoints": [[float(x), float(y)] for x, y in tr.waypoints],
        }
        if include_micro:
            entry["micro_steps"] = [[float(x), float(y)] for x, y in tr.micro_steps]
        doc["robots"].append(entry)
    return doc


def result_to_json(result: PlanResult, include_timing: bool = True, include_micro: bool = False) -> str:
    return json.dumps(result_to_dict(result, include_timing, include_micro), separators=(",", ":")) + "\n"
