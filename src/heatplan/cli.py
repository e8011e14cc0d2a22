"""Command-line entry point.

Subcommands: gen-map, plan, bench, render, fields.  Exit status 0 on
success, 1 when a plan fails, 2 on usage or input errors.  All randomness
comes from explicit --seed flags; no environment variables are read.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import gridmap, heatfield, render
from .errors import HeatplanError, MapFormatError
from .planner import PlannerConfig, Trajectory, plan, result_to_json

# (flag dest, PlannerConfig field, type, help); the flag is --dest with dashes
_PLANNER_FLAGS = (
    ("steps", "T", int, "diffusion steps T"),
    ("anneal", "K", int, "annealing steps K per diffusion step"),
    ("beta", "beta", float, "inter-robot guidance strength"),
    ("d_safe", "d_safe", float, "hard minimum robot separation, units"),
    ("d_margin", "d_margin", float, "soft repulsion threshold, units"),
    ("step_ratio", "step_ratio", float, "alpha_t / sigma_t"),
    ("sigma_min", "sigma_min", float, "noise level sigma_1 of the finest step"),
    ("sigma_max", "sigma_max", float, "noise level sigma_T of the coarsest step"),
    ("time_limit", "time_limit", float, "seconds before abort"),
    ("goal_tol", "goal_tol", float, "goal membership tolerance, units"),
)


def _add_planner_flags(p: argparse.ArgumentParser):
    defaults = PlannerConfig()
    for dest, field, kind, text in _PLANNER_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind,
                       help=f"{text} (default {getattr(defaults, field)})")


def _planner_overrides(args) -> dict:
    return {
        field: getattr(args, dest)
        for dest, field, _kind, _text in _PLANNER_FLAGS
        if getattr(args, dest) is not None
    }


# argparse types; a ValueError here is reported against the flag, by the function's name
def int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v)


def step_or_all(text: str):
    return text if text == "all" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heatplan")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-map", help="generate a family map and write its JSON file")
    g.add_argument("--family", required=True, choices=gridmap.FAMILIES)
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("--grid", type=int, default=128, help="cells per side")
    g.add_argument("--labels", type=int, default=4, help="number of labeled regions")
    g.add_argument("--ood", action="store_true", help="seal a duplicate of the first label")
    g.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("plan", help="plan a scenario file and write the result JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", help="result path (default stdout)")
    p.add_argument("--svg", help="also render trajectories to this SVG path")
    p.add_argument("--micro-steps", action="store_true", help="include micro steps in the JSON")
    p.add_argument("--no-timing", action="store_true", help="omit wall-clock fields (determinism checks)")
    _add_planner_flags(p)

    b = sub.add_parser("bench", help="expand a suite, run it, write report and records")
    b.add_argument("--families", default=",".join(gridmap.FAMILIES), help="comma-separated families")
    b.add_argument("--robots", type=int_list, default="3,6,9", help="comma-separated robot counts")
    b.add_argument("--n", type=int, default=30, help="scenarios per (family, robot count)")
    b.add_argument("--variants", type=int, default=6, help="map variants per family")
    b.add_argument("--grid", type=int, default=128, help="map cells per side")
    b.add_argument("--base-seed", type=int, default=0)
    b.add_argument("--ood", action="store_true", help="seal one duplicate goal instance per map")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", help="report path (default stdout)")
    b.add_argument("--records", help="per-scenario JSON-lines path")
    b.add_argument("--no-timing", action="store_true", help="omit wall-clock fields")
    _add_planner_flags(b)

    r = sub.add_parser("render", help="render a map (and optional plan) to SVG")
    r.add_argument("--map", help="map JSON path")
    r.add_argument("--scenario", help="scenario JSON path (alternative to --map)")
    r.add_argument("--plan", dest="plan_path", help="plan result JSON with waypoints")
    r.add_argument("--layers", default="occupancy,regions", help="comma-separated layer names")
    r.add_argument("--stride", type=int, default=4, help="arrow subsampling stride")
    r.add_argument("--canvas", type=int, default=640)
    r.add_argument("--label", help="goal label for heat/field layers (solves on the fly)")
    r.add_argument("--t", type=int, default=20, help="diffusion step for heat/field layers")
    r.add_argument("--field-dump", dest="field_dump", help="load field_arrows from a fields dump instead of solving")
    r.add_argument("--out", help="SVG path (default stdout)")
    _add_planner_flags(r)

    f = sub.add_parser("fields", help="solve score fields for one label and dump them")
    f.add_argument("--map", required=True)
    f.add_argument("--label", required=True)
    f.add_argument("--t", type=step_or_all, default="all", help="diffusion step, or 'all'")
    f.add_argument("--format", choices=("bin", "json"), default="bin")
    f.add_argument("--out", required=True, help="output file (single t) or directory (all)")
    _add_planner_flags(f)

    return parser


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_gen_map(args) -> int:
    worldmap = gridmap.generate_map(
        args.family, args.seed, cells=args.grid, n_labels=args.labels, seal_duplicate=args.ood
    )
    _write_out(gridmap.encode_map(worldmap), args.out)
    return 0


def _cmd_plan(args) -> int:
    scenario = gridmap.load_scenario(args.scenario)
    overrides = _planner_overrides(args)
    if args.seed is not None:
        overrides["seed"] = args.seed
    # the flags win over the scenario file's config
    scenario = dataclasses.replace(scenario, config={**scenario.config, **overrides})
    result = plan(scenario)
    _write_out(
        result_to_json(result, include_timing=not args.no_timing, include_micro=args.micro_steps),
        args.out,
    )
    if args.svg:
        spec = render.RenderSpec(layers=("occupancy", "regions", "trajectories", "starts", "goals"))
        svg = render.render_svg(
            scenario.map, spec, trajectories=result.trajectories, scenario=scenario
        )
        Path(args.svg).write_text(svg, encoding="utf-8")
    return 0 if result.success else 1


def _cmd_bench(args) -> int:
    spec = bench_mod.SuiteSpec(
        families=tuple(s for s in args.families.split(",") if s),
        robot_counts=args.robots,
        scenarios_per_config=args.n,
        map_variants=args.variants,
        base_seed=args.base_seed,
        ood=args.ood,
        map_params={"cells": args.grid},
    )
    config = PlannerConfig().with_overrides(_planner_overrides(args))
    scenarios = bench_mod.generate_suite(spec)
    report = bench_mod.run_suite(scenarios, config, workers=args.workers)
    _write_out(bench_mod.write_report(report, args.format, include_timing=not args.no_timing), args.out)
    if args.records:
        Path(args.records).write_text(
            bench_mod.write_records(report.records, include_timing=not args.no_timing),
            encoding="utf-8",
        )
    return 0


def _cmd_render(args) -> int:
    scenario = None
    if args.scenario:
        scenario = gridmap.load_scenario(args.scenario)
        worldmap = scenario.map
    elif args.map:
        worldmap = gridmap.load_map(args.map)
    else:
        raise HeatplanError("render needs --map or --scenario")
    layers = tuple(s for s in args.layers.split(",") if s)
    spec = render.RenderSpec(layers=layers, stride=args.stride, canvas=(args.canvas, args.canvas))

    heat_state = score_field = None
    if args.field_dump:
        data = Path(args.field_dump).read_bytes()
        score_field = heatfield.load_field_bytes(data, worldmap)
    elif "heat" in layers or "field_arrows" in layers:
        if not args.label:
            raise HeatplanError("heat/field layers need --label (or --field-dump)")
        config = PlannerConfig().with_overrides(_planner_overrides(args))
        schedule = config.schedule()
        regions = gridmap.resolve_goal_regions(args.label, worldmap)
        states = heatfield.solve_to_times(regions, worldmap, schedule)
        if not (1 <= args.t <= schedule.T):
            raise HeatplanError(f"--t must be in 1..{schedule.T}")
        heat_state = states[args.t - 1]
        score_field = heatfield.build_score_field(heat_state, config.log_floor, t=args.t)
    if "heat" in layers and heat_state is None:
        raise HeatplanError("heat layer needs --label (dumps carry vectors only)")

    trajectories = None
    if args.plan_path:
        trajectories = _plan_trajectories(gridmap.json_document(Path(args.plan_path).read_bytes()))
    svg = render.render_svg(
        worldmap, spec, heat=heat_state, score_field=score_field,
        trajectories=trajectories, scenario=scenario,
    )
    _write_out(svg, args.out)
    return 0


def _plan_trajectories(doc) -> tuple:
    """The waypoint paths of a plan result document; errors name the bad
    field.  Only waypoints are drawn, so micro steps are not read."""
    robots = doc.get("robots") if isinstance(doc, dict) else None
    if not isinstance(robots, list):
        raise MapFormatError("robots", "expected a list of robot entries")
    trajectories = []
    for i, entry in enumerate(robots):
        where = f"robots[{i}]"
        if not isinstance(entry, dict):
            raise MapFormatError(where, "expected an object")
        if not isinstance(entry.get("id"), str):
            raise MapFormatError(f"{where}.id", "expected a string")
        try:
            waypoints = np.asarray(entry.get("waypoints"), dtype=float)
        except (TypeError, ValueError):  # not numbers, or ragged
            waypoints = None
        if (waypoints is None or waypoints.ndim != 2 or waypoints.shape[1:] != (2,) or not len(waypoints)
                or not np.isfinite(waypoints).all()):
            raise MapFormatError(f"{where}.waypoints", "expected a nonempty list of finite [x, y] points")
        trajectories.append(Trajectory(entry["id"], waypoints, np.empty((0, 2))))
    return tuple(trajectories)


def _cmd_fields(args) -> int:
    worldmap = gridmap.load_map(args.map)
    config = PlannerConfig().with_overrides(_planner_overrides(args))
    schedule = config.schedule()
    regions = gridmap.resolve_goal_regions(args.label, worldmap)
    ladder = heatfield.score_fields(worldmap, regions, schedule, config.log_floor)
    if args.t == "all":
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        ext = "hpsf" if args.format == "bin" else "json"
        for t, field in sorted(ladder.items()):
            heatfield.save_field(field, outdir / f"{args.label}.t{t:02d}.{ext}", schedule, args.format)
        return 0
    if args.t not in ladder:
        raise HeatplanError(f"--t must be in 1..{schedule.T} or 'all'")
    heatfield.save_field(ladder[args.t], Path(args.out), schedule, args.format)
    return 0


_COMMANDS = {
    "gen-map": _cmd_gen_map,
    "plan": _cmd_plan,
    "bench": _cmd_bench,
    "render": _cmd_render,
    "fields": _cmd_fields,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (HeatplanError, FileNotFoundError, ValueError) as exc:
        print(f"heatplan: error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"heatplan: error: missing field {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
