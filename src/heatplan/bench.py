"""Benchmark harness: scenario suites, a reachability oracle, metric reports.

Suites expand deterministically from a base seed.  Every generated start is
verified reachable to its goal by flood fill, so planner failures measure the
planner, not impossible tasks.  Scenario runs are independent; per-scenario
seeds are fixed at generation time, which keeps reports identical for any
worker count (wall-clock timing fields aside).
"""

from __future__ import annotations

import json
import numbers
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import GenerationError, ParameterError
from .gridmap import (
    FAMILIES,
    RobotSpec,
    Scenario,
    WorldMap,
    generate_map,
    hop_distances,
    resolve_goal_regions,
    world_to_cell,
)
from .heatfield import FieldCache
from .planner import PlannerConfig, pair_distances, plan

REPORT_COLUMNS = (
    "family",
    "n",
    "success_rate",
    "mean_time_s",
    "median_time_s",
    "mean_path_len",
    "min_clearance",
    "timeouts",
)

START_SEPARATION = 0.12  # min distance between a suite's generated starts, units
MAP_PARAMS = ("cells", "n_labels", "seal_duplicate")  # generate_map's keywords


# ---------------------------------------------------------------------------
# reachability oracle


def flood_fill(worldmap: WorldMap, seed_cell) -> np.ndarray:
    """Boolean mask of free cells 4-connected to ``seed_cell``."""
    col, row = int(seed_cell[0]), int(seed_cell[1])
    if not (0 <= col < worldmap.width_cells and 0 <= row < worldmap.height_cells):
        raise ParameterError(f"seed cell ({col},{row}) out of bounds")
    if worldmap.occupancy[row, col]:
        raise ParameterError(f"seed cell ({col},{row}) is an obstacle")
    return hop_distances(worldmap.free, [(col, row)]) >= 0


# ---------------------------------------------------------------------------
# suite generation


@dataclass(frozen=True)
class SuiteSpec:
    """Deterministic expansion of a scenario batch.

    ``scenarios_per_config`` is the total number of scenarios per
    (family, robot count), spread round-robin over ``map_variants`` map
    seeds.  The paper-scale grid corresponds to (120, 12); the desk-scale
    default is (30, 6).
    """

    families: tuple = FAMILIES
    robot_counts: tuple = (3, 6, 9)
    scenarios_per_config: int = 30
    map_variants: int = 6
    base_seed: int = 0
    ood: bool = False
    map_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, seq in (("families", self.families), ("robot_counts", self.robot_counts)):
            if not isinstance(seq, (tuple, list)) or not seq:
                raise ParameterError(f"must be a nonempty sequence, got {seq!r}", field=name)
        for i, fam in enumerate(self.families):
            if fam not in FAMILIES:
                raise ParameterError(f"must be one of {FAMILIES}, got {fam!r}", field=f"families[{i}]")
        counts = [(f"robot_counts[{i}]", n, 1) for i, n in enumerate(self.robot_counts)]
        counts += [("scenarios_per_config", self.scenarios_per_config, 1), ("map_variants", self.map_variants, 1),
                   ("base_seed", self.base_seed, 0)]
        for name, value, least in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ParameterError(f"must be an integer >= {least}, got {value!r}", field=name)
        if not isinstance(self.map_params, dict) or set(self.map_params) - set(MAP_PARAMS):
            raise ParameterError(f"must be a dict with keys among {MAP_PARAMS}, got {self.map_params!r}",
                                 field="map_params")


def _suite_maps(spec: SuiteSpec, family: str):
    fidx = FAMILIES.index(family)
    n_labels = max(spec.robot_counts)
    params = dict(spec.map_params)
    params.setdefault("n_labels", n_labels)
    if spec.ood:
        params["seal_duplicate"] = True
    maps = []
    for v in range(spec.map_variants):
        seed = int(
            np.random.default_rng(np.random.SeedSequence([spec.base_seed, fidx, v, 5])).integers(2**31)
        )
        maps.append(generate_map(family, seed, **params))
    return maps


def _sample_starts(worldmap, component, n, separation, rng):
    rows, cols = np.nonzero(component)
    hx, hy = worldmap.cell_size
    starts = []
    for _robot in range(n):
        for _attempt in range(2000):
            i = int(rng.integers(len(rows)))
            jx, jy = rng.random(2)
            p = ((cols[i] + jx) * hx, (rows[i] + jy) * hy)
            if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= separation**2 for q in starts):
                starts.append(p)
                break
        else:
            raise GenerationError(
                f"could not place {n} starts with separation {separation} on {worldmap.name}"
            )
    return starts


def generate_suite(spec: SuiteSpec):
    """Expand a SuiteSpec into concrete scenarios, flood-fill verified."""
    scenarios = []
    for family in spec.families:
        fidx = FAMILIES.index(family)
        maps = _suite_maps(spec, family)
        components = {}
        for m in maps:
            seed_cell = m.regions[0].cells[0]
            components[m.name] = flood_fill(m, seed_cell)
        for n_robots in spec.robot_counts:
            for s in range(spec.scenarios_per_config):
                worldmap = maps[s % spec.map_variants]
                component = components[worldmap.name]
                rng = np.random.default_rng(
                    np.random.SeedSequence([spec.base_seed, fidx, n_robots, s, 11])
                )
                starts = _sample_starts(worldmap, component, n_robots, START_SEPARATION, rng)
                labels = list(worldmap.labels())
                if spec.ood:
                    # robot 0 targets the duplicated label; the reachable
                    # instance must be in the start component
                    dup = worldmap.regions[0].label
                    labels.remove(dup)
                    order = [dup] + [labels[i] for i in rng.permutation(len(labels))]
                else:
                    order = [labels[i] for i in rng.permutation(len(labels))]
                if len(order) < n_robots:
                    raise GenerationError(
                        f"map {worldmap.name} has {len(order)} labels but {n_robots} robots need distinct goals"
                    )
                robots = []
                for i in range(n_robots):
                    label = order[i]
                    reachable = [
                        reg
                        for reg in worldmap.regions_with_label(label)
                        if component[reg.cells[0][1], reg.cells[0][0]]
                    ]
                    if not reachable:
                        raise GenerationError(
                            f"label {label!r} has no instance reachable from the start component"
                        )
                    robots.append(RobotSpec(f"r{i}", f"move to the {label}", starts[i]))
                scenario_seed = int(
                    np.random.default_rng(
                        np.random.SeedSequence([spec.base_seed, fidx, n_robots, s, 13])
                    ).integers(2**31)
                )
                scenarios.append(Scenario(worldmap, tuple(robots), scenario_seed))
    return scenarios


# ---------------------------------------------------------------------------
# suite execution


def _family_of(worldmap: WorldMap) -> str:
    for fam in FAMILIES:
        if worldmap.name.startswith(fam):
            return fam
    return worldmap.name


def _polyline_length(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(np.sqrt(((points[1:] - points[:-1]) ** 2).sum(axis=1)).sum())


def run_one(scenario: Scenario, config: PlannerConfig, cache: FieldCache | None = None,
            include_result_json: bool = False) -> dict:
    """Plan one scenario and derive its per-scenario record."""
    cache = cache if cache is not None else FieldCache()
    result = plan(scenario, config, cache=cache)
    worldmap = scenario.map
    hx = worldmap.cell_size[0]
    path_lengths = [_polyline_length(tr.waypoints) for tr in result.trajectories]
    detours = []
    for robot, tr, plen in zip(scenario.robots, result.trajectories, path_lengths):
        # the grid is undirected: one BFS from the goal cells, read at the start
        label = resolve_goal_regions(robot.instruction, worldmap)[0].label
        col, row = world_to_cell(tr.waypoints[0], worldmap)
        best = int(cache.goal_hops(worldmap, label)[row, col])
        detours.append(plen / (best * hx) if best > 0 else None)
    min_clearance = None
    if len(result.trajectories) > 1 and len(result.trajectories[0].micro_steps):
        min_clearance = min(float(d.min()) for _, d in pair_distances(result.trajectories))
    record = {
        "family": _family_of(worldmap),
        "n": len(scenario.robots),
        "map": worldmap.name,
        "scenario_seed": int(scenario.seed),
        "success": result.success,
        "timed_out": result.timed_out,
        "goal_reached": [bool(g) for g in result.goal_reached],
        "planning_time_s": float(result.planning_time_s),
        "path_lengths": path_lengths,
        "detour_ratios": detours,
        "min_clearance": min_clearance,
        "static_violations": len(result.static_violations),
        "inter_robot_violations": len(result.inter_robot_violations),
    }
    if include_result_json:
        from .planner import result_to_json

        record["result_json"] = result_to_json(result, include_timing=False)
    return record


def _run_map(scenarios, config, include_result_json):
    """Plan one map's scenarios in order on a cache that lives for this call
    only, so each of the map's ladders is solved once."""
    cache = FieldCache()
    return [run_one(scenario, config, cache, include_result_json) for scenario in scenarios]


@dataclass(eq=False)
class SuiteReport:
    rows: list
    records: list


def run_suite(scenarios, config: PlannerConfig | None = None, workers: int = 1,
              include_result_json: bool = False) -> SuiteReport:
    """Plan every scenario map by map and aggregate metrics.

    Scenarios are grouped by map content.  Each group runs in order on its
    own FieldCache, so each ladder is solved once per suite and released when
    its map's scenarios are done.  With ``workers`` > 1 the groups are spread
    over at most one process per map.  Records come back in input order and,
    measured wall-clock fields aside, do not depend on ``workers``.
    """
    if not scenarios:
        raise ParameterError("no scenarios to run")
    config = config if config is not None else PlannerConfig()
    groups = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(scenario.map.content_hash(), []).append(i)
    batches = [[scenarios[i] for i in idx] for idx in groups.values()]
    fixed = (repeat(config), repeat(include_result_json))
    workers = min(workers, len(batches))
    if workers <= 1:
        results = list(map(_run_map, batches, *fixed))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_map, batches, *fixed))
    done = [record for batch in results for record in batch]
    order = [i for idx in groups.values() for i in idx]
    records = [done[j] for j in np.argsort(order)]
    return SuiteReport(rows=aggregate_records(records), records=records)


def aggregate_records(records) -> list:
    """Per (family, n) aggregate rows in stable order."""
    keys = sorted(
        {(r["family"], r["n"]) for r in records},
        key=lambda k: (FAMILIES.index(k[0]) if k[0] in FAMILIES else len(FAMILIES), str(k[0]), k[1]),
    )
    rows = []
    for family, n in keys:
        group = [r for r in records if r["family"] == family and r["n"] == n]
        successes = [r for r in group if r["success"]]
        times = [r["planning_time_s"] for r in group]
        paths = [statistics.fmean(r["path_lengths"]) for r in successes]
        clearances = [r["min_clearance"] for r in successes if r["min_clearance"] is not None]
        rows.append(
            {
                "family": family,
                "n": n,
                "success_rate": len(successes) / len(group),
                "mean_time_s": statistics.fmean(times),
                "median_time_s": statistics.median(times),
                "mean_path_len": statistics.fmean(paths) if paths else None,
                "min_clearance": min(clearances) if clearances else None,
                "timeouts": sum(1 for r in group if r["timed_out"]),
                "scenarios": len(group),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report emission


def _cell_str(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(report: SuiteReport, fmt: str = "csv", include_timing: bool = True) -> str:
    """Serialize aggregate rows; timing columns can be blanked for
    worker-count determinism comparisons."""
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in report.rows:
            values = []
            for col in REPORT_COLUMNS:
                val = row[col]
                if not include_timing and col in ("mean_time_s", "median_time_s"):
                    val = None
                values.append(_cell_str(val))
            lines.append(",".join(values))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = []
        for row in report.rows:
            out = {k: row[k] for k in REPORT_COLUMNS}
            out["scenarios"] = row["scenarios"]
            if not include_timing:
                out.pop("mean_time_s")
                out.pop("median_time_s")
            rows.append(out)
        return json.dumps({"rows": rows}, separators=(",", ":")) + "\n"
    raise ParameterError(f"unsupported report format {fmt!r}")


def write_records(records, include_timing: bool = True) -> str:
    """JSON-lines dump, one per-scenario record per line."""
    lines = []
    for rec in records:
        out = {k: v for k, v in rec.items() if k != "result_json"}
        if not include_timing:
            out.pop("planning_time_s")
        lines.append(json.dumps(out, separators=(",", ":")))
    return "\n".join(lines) + "\n"
