"""Annealed Langevin planning over heat score fields with inter-robot guidance.

Each outer step t = T..1 interpolates every robot's score field at its current
position and runs K annealing updates

    x <- x + 0.5 * alpha_t^2 * (s + beta * g) + alpha_t * eps

where g is the repulsive direction of the pairwise proximity cost (active
below d_margin) and eps is a per-robot seeded Gaussian.  The sampled
distribution is zero inside obstacles and on configurations closer than
d_safe, so proposals that leave free space or breach the hard separation are
rejected (the mover keeps its previous position); a separate validator, not
the sampler, is the arbiter of success.
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

from .errors import ParameterError, SingularConfigurationError
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


def _pairwise(positions):
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) < 1:
        raise ParameterError("positions must be an (N, 2) array with N >= 1")
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    off = ~np.eye(len(pos), dtype=bool)
    if len(pos) > 1 and np.any(dist[off] == 0.0):
        raise SingularConfigurationError("two robots occupy the same point")
    return pos, diff, dist


def _interrobot_cost(positions, d_margin: float) -> float:
    """Sum over pairs of max(0, -log(d / d_margin))."""
    _, _, dist = _pairwise(positions)
    n = dist.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, 1)
    d = dist[iu]
    below = d < d_margin
    if not below.any():
        return 0.0
    return float(np.sum(-np.log(d[below] / d_margin)))


def interrobot_guidance(positions, d_margin: float) -> np.ndarray:
    """Repulsive direction, the negative gradient of the proximity cost.

    Pairs with d < d_margin contribute (x_i - x_j) / d^2 to robot i.
    """
    pos, diff, dist = _pairwise(positions)
    n = len(pos)
    if n < 2:
        return np.zeros_like(pos)
    np.fill_diagonal(dist, np.inf)
    w = np.where(dist < d_margin, 1.0 / (dist * dist), 0.0)
    return (w[:, :, None] * diff).sum(axis=1)


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


def _clamp_to_free(worldmap: WorldMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Walk the exact grid supercover from ``a`` toward ``b``; stop just short
    of the first obstacle cell.  The realized move therefore never crosses a
    wall, however long the proposal, and a blocked robot slides up to the
    boundary instead of freezing.
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
            return np.array([ax, ay])
        return np.array([px, py])

    def reach_b(t):
        # the walk ends at t >= 1, yet b may lie exactly on the face of an
        # obstacle cell that the walk never entered
        if occ[min(int(by / hy), H - 1), min(int(bx / hx), W - 1)]:
            return stop_at(min(t, 1.0))
        return np.array([bx, by])

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
    positions: np.ndarray,
    t: int,
    ladders,
    schedule: NoiseSchedule,
    config: PlannerConfig,
    rngs,
    noiseless: bool = False,
) -> np.ndarray:
    """One synchronous annealing update of all robots' (N, 2) positions at
    level t, from a common snapshot; returns the new positions.

    ``ladders`` holds each robot's {t: ScoreField}.  A robot outside its
    level's field support escalates to the smallest covering level and uses
    that level's alpha.  One ``interpolate`` call reads every robot's score,
    each from its own effective-level field.
    """
    worldmap = ladders[0][t].map
    pos = positions
    n = len(pos)
    hx, hy = worldmap.cell_size

    cols = np.minimum((pos[:, 0] / hx).astype(np.int64), worldmap.width_cells - 1)
    rows = np.minimum((pos[:, 1] / hy).astype(np.int64), worldmap.height_cells - 1)
    levels, fields = zip(*(
        _effective_level(ladder, t, cell, schedule.T)
        for ladder, cell in zip(ladders, zip(cols.tolist(), rows.tolist()))
    ))
    s = interpolate(fields, pos)
    alpha = schedule.alpha[np.array(levels) - 1][:, None]

    if n > 1 and config.beta > 0:
        drift = s + config.beta * interrobot_guidance(pos, config.d_margin)
    else:
        drift = s
    prop = pos + 0.5 * alpha * alpha * drift
    if not noiseless:
        eps = np.empty_like(pos)
        for i in range(n):
            eps[i] = rngs[i].standard_normal(2)
        prop = prop + alpha * eps
    w, h = worldmap.world_size
    np.clip(prop[:, 0], 0.0, w * (1 - 1e-12), out=prop[:, 0])
    np.clip(prop[:, 1], 0.0, h * (1 - 1e-12), out=prop[:, 1])

    # zero-density regions are never entered: advance each robot along its
    # proposal until the exact cell walk meets an obstacle
    new = prop.copy()
    for i in range(n):
        if new[i, 0] != pos[i, 0] or new[i, 1] != pos[i, 1]:
            new[i] = _clamp_to_free(worldmap, pos[i], prop[i])
    # reject moves that breach the hard pairwise separation; symmetric in the
    # pair, so the update stays permutation-equivariant
    for _round in range(n + 1):
        if n < 2:
            break
        diff = new[:, None, :] - new[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        bad = dist <= config.d_safe
        if not bad.any():
            break
        moved = np.any(new != pos, axis=1)
        revert = bad.any(axis=1) & moved
        if not revert.any():
            break
        new[revert] = pos[revert]
    return new


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


def _separated_starts(robots, worldmap: WorldMap, rngs, d_safe: float) -> np.ndarray:
    """(N, 2) start positions, every pair more than ``d_safe`` apart.

    Given starts are kept, and two of them at or within ``d_safe`` raise a
    ParameterError naming both robots.  A missing start is drawn from its
    robot's own stream, in list order, and redrawn until it clears every
    start placed before it.
    """
    start = np.empty((len(robots), 2), dtype=np.float64)
    given = [i for i, r in enumerate(robots) if r.start is not None]
    for i in given:
        start[i] = robots[i].start
    for a, i in enumerate(given):
        for j in given[a + 1:]:
            if np.hypot(*(start[i] - start[j])) <= d_safe:
                raise ParameterError(
                    f"robots {robots[i].id!r} and {robots[j].id!r} start within d_safe={d_safe:g}"
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
                f"in {START_ATTEMPTS} draws"
            )
        placed.append(i)
    return start


def plan(
    scenario: Scenario,
    config: PlannerConfig | None = None,
    cache: FieldCache | None = None,
) -> PlanResult:
    """Run the full annealed inference loop for every robot in the scenario.

    The scenario's ``config`` overrides ``config``.  The last micro-step
    drops the noise term.  Starts must be more than ``d_safe`` apart: given
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

    start = _separated_starts(robots, worldmap, rngs, cfg.d_safe)
    positions = start
    micro = []
    timed_out = False
    for t in range(cfg.T, 0, -1):
        if time.perf_counter() - t_start > cfg.time_limit:
            timed_out = True
            break
        for k in range(1, cfg.K + 1):
            noiseless = t == 1 and k == cfg.K
            positions = langevin_step(positions, t, ladders, schedule, cfg, rngs, noiseless=noiseless)
            micro.append(positions)

    ms = np.asarray(micro) if micro else np.empty((0, n, 2))  # (steps*K, N, 2)
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
