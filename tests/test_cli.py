import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatplan as hp
from heatplan.cli import main


def run_cli(args):
    return main(list(args))


def test_gen_map_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["gen-map", "--family", "room", "--seed", "7", "--grid", "64", "--out", str(out1)]) == 0
    assert run_cli(["gen-map", "--family", "room", "--seed", "7", "--grid", "64", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m = hp.load_map(out1)
    assert m.width_cells == 64


def test_gen_map_bad_family_exits_2(tmp_path, capsys):
    assert run_cli(["gen-map", "--family", "castle", "--seed", "1"]) == 2


def test_plan_writes_valid_result(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "drop_region", "--seed", "3", "--grid", "64", "--labels", "2", "--out", str(map_path)])
    m = hp.load_map(map_path)
    label = m.labels()[0]
    # pick a free start in the label's component
    from heatplan.bench import flood_fill

    mask = flood_fill(m, m.regions_with_label(label)[0].cells[0])
    rows, cols = np.nonzero(mask)
    start = [float((cols[0] + 0.5) * m.cell_size[0]), float((rows[0] + 0.5) * m.cell_size[1])]
    scenario = {
        "version": 1,
        "map": "m.json",
        "seed": 5,
        "robots": [{"id": "r0", "start": start, "instruction": f"move to the {label}"}],
        "config": {},
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    ppath = tmp_path / "p.json"
    svgpath = tmp_path / "p.svg"
    code = run_cli(["plan", "--scenario", str(spath), "--out", str(ppath), "--svg", str(svgpath)])
    doc = json.loads(ppath.read_text())
    assert set(doc) >= {"scenario", "seed", "success", "robots", "violations", "planning_time_s"}
    assert doc["seed"] == 5
    assert len(doc["robots"][0]["waypoints"]) == 21
    assert code == (0 if doc["success"] else 1)
    assert svgpath.exists()
    import xml.etree.ElementTree as ET

    ET.fromstring(svgpath.read_text())


def test_plan_exit_matches_success(tmp_path):
    # a sealed-only-instance goal cannot be reached -> exit 1
    occ = np.zeros((64, 64), dtype=bool)
    occ[28:37, 28:37] = True
    occ[30:35, 30:35] = False
    m = hp.WorldMap("sealed", occ, regions=[hp.SemanticRegion("apple", ((31, 31), (32, 31)))])
    hp.save_map(m, tmp_path / "m.json")
    scenario = {
        "version": 1,
        "map": "m.json",
        "seed": 1,
        "robots": [{"id": "r0", "start": [0.2, 0.2], "instruction": "apple"}],
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    out = tmp_path / "p.json"
    assert run_cli(["plan", "--scenario", str(tmp_path / "s.json"), "--out", str(out), "--steps", "8", "--anneal", "4"]) == 1
    assert json.loads(out.read_text())["success"] is False


def test_plan_missing_scenario_exits_2(capsys):
    assert run_cli(["plan", "--scenario", "/nonexistent/s.json"]) == 2


def test_unknown_flag_exits_2():
    assert run_cli(["gen-map", "--family", "room", "--seed", "1", "--frobnicate"]) == 2


def test_planner_flag_help_shows_config_defaults(capsys):
    defaults = [("--steps", 20), ("--anneal", 16), ("--beta", 2.0), ("--d-safe", 0.1), ("--d-margin", 0.12),
                ("--step-ratio", 0.3), ("--sigma-min", 0.01), ("--sigma-max", 1.0), ("--time-limit", 180.0),
                ("--goal-tol", 0.05)]
    for command in ("plan", "bench", "render", "fields"):
        assert run_cli([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "diffusion steps T (default 20)" in text
        assert "annealing steps K per diffusion step (default 16)" in text
        for flag, default in defaults:
            metavar = flag[2:].upper().replace("-", "_")
            help_text = text.split(f"{flag} {metavar} ", 1)[1].split(" --", 1)[0]
            assert help_text.endswith(f"(default {default})"), (command, flag, help_text)


def test_bench_small_run(tmp_path):
    report = tmp_path / "r.csv"
    records = tmp_path / "r.jsonl"
    code = run_cli([
        "bench", "--families", "drop_region", "--robots", "2", "--n", "2", "--variants", "1",
        "--grid", "64", "--steps", "8", "--anneal", "4", "--out", str(report), "--records", str(records),
    ])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("family,n,success_rate")
    assert lines[1].startswith("drop_region,2,")
    assert len(records.read_text().strip().split("\n")) == 2


def test_bench_deterministic_reports(tmp_path):
    args = [
        "bench", "--families", "room", "--robots", "2", "--n", "2", "--variants", "1",
        "--grid", "48", "--steps", "6", "--anneal", "3", "--format", "json", "--no-timing",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fields_dump_all(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "conveyor", "--seed", "2", "--grid", "48", "--labels", "1", "--out", str(map_path)])
    m = hp.load_map(map_path)
    label = m.labels()[0]
    outdir = tmp_path / "fields"
    assert run_cli(["fields", "--map", str(map_path), "--label", label, "--t", "all",
                    "--steps", "4", "--out", str(outdir)]) == 0
    files = sorted(outdir.glob("*.hpsf"))
    assert len(files) == 4
    from heatplan.heatfield import load_field_bytes

    f = load_field_bytes(files[0].read_bytes(), m)
    assert f.vectors.shape == (48, 48, 2)


def test_fields_single_t_json(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "room", "--seed", "4", "--grid", "48", "--labels", "1", "--out", str(map_path)])
    m = hp.load_map(map_path)
    out = tmp_path / "f.json"
    assert run_cli(["fields", "--map", str(map_path), "--label", m.labels()[0], "--t", "3",
                    "--steps", "4", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["t"] == 3 and doc["map_hash"] == m.content_hash()


def test_render_from_files(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "shelf", "--seed", "6", "--grid", "48", "--out", str(map_path)])
    out = tmp_path / "m.svg"
    assert run_cli(["render", "--map", str(map_path), "--layers", "occupancy,regions", "--out", str(out)]) == 0
    import xml.etree.ElementTree as ET

    ET.fromstring(out.read_text())
    # heat layer from a label
    m = hp.load_map(map_path)
    out2 = tmp_path / "h.svg"
    assert run_cli(["render", "--map", str(map_path), "--layers", "occupancy,heat,field_arrows",
                    "--label", m.labels()[0], "--t", "4", "--steps", "4", "--out", str(out2)]) == 0
    ET.fromstring(out2.read_text())


def test_console_entrypoint_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "heatplan.cli", "gen-map", "--family", "room", "--seed", "1", "--grid", "32"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["width_cells"] == 32


def test_render_from_field_dump(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "drop_region", "--seed", "9", "--grid", "48", "--labels", "1", "--out", str(map_path)])
    m = hp.load_map(map_path)
    dump = tmp_path / "f.hpsf"
    assert run_cli(["fields", "--map", str(map_path), "--label", m.labels()[0], "--t", "3",
                    "--steps", "4", "--out", str(dump)]) == 0
    out = tmp_path / "f.svg"
    assert run_cli(["render", "--map", str(map_path), "--layers", "occupancy,field_arrows",
                    "--field-dump", str(dump), "--out", str(out)]) == 0
    import xml.etree.ElementTree as ET

    root = ET.fromstring(out.read_text())
    assert root.findall(".//{http://www.w3.org/2000/svg}line")


def test_flag_overrides_scenario_config(tmp_path):
    reg = hp.SemanticRegion("apple", ((31, 31), (32, 31), (31, 32), (32, 32)))
    m = hp.empty_map(cells=64, regions=[reg])
    hp.save_map(m, tmp_path / "m.json")
    scenario = {
        "version": 1,
        "map": "m.json",
        "seed": 1,
        "robots": [{"id": "r0", "start": [1.0, 1.0], "instruction": "apple"}],
        "config": {"T": 5, "K": 2},
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    out = tmp_path / "p.json"
    run_cli(["plan", "--scenario", str(tmp_path / "s.json"), "--out", str(out), "--steps", "7"])
    doc = json.loads(out.read_text())
    assert len(doc["robots"][0]["waypoints"]) == 8  # flag T=7 beats scenario T=5


def test_render_scenario_with_plan(tmp_path):
    reg = hp.SemanticRegion("apple", ((31, 31), (32, 31), (31, 32), (32, 32)))
    m = hp.empty_map(cells=64, regions=[reg])
    hp.save_map(m, tmp_path / "m.json")
    scenario = {
        "version": 1,
        "map": "m.json",
        "seed": 2,
        "robots": [{"id": "r0", "start": [0.3, 0.3], "instruction": "apple"}],
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    plan_out = tmp_path / "p.json"
    run_cli(["plan", "--scenario", str(tmp_path / "s.json"), "--out", str(plan_out),
             "--steps", "6", "--anneal", "3"])
    svg_out = tmp_path / "traj.svg"
    assert run_cli(["render", "--scenario", str(tmp_path / "s.json"), "--plan", str(plan_out),
                    "--layers", "occupancy,regions,trajectories,starts,goals", "--out", str(svg_out)]) == 0
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg_out.read_text())
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == 1 and len(polys[0].attrib["points"].split()) == 7


def test_fields_bad_t_exits_2(tmp_path):
    map_path = tmp_path / "m.json"
    run_cli(["gen-map", "--family", "room", "--seed", "1", "--grid", "32", "--labels", "1", "--out", str(map_path)])
    m = hp.load_map(map_path)
    assert run_cli(["fields", "--map", str(map_path), "--label", m.labels()[0],
                    "--t", "bogus", "--out", str(tmp_path / "f.hpsf")]) == 2


@pytest.mark.parametrize(
    "doc, field",
    [
        pytest.param([], "robots", id="list"),
        pytest.param({"robots": 5}, "robots", id="robots-not-a-list"),
        pytest.param({"robots": [5]}, "robots[0]", id="robot-not-an-object"),
        pytest.param({"robots": [{"waypoints": [[0.5, 0.5]]}]}, "robots[0].id", id="no-id"),
        pytest.param({"robots": [{"id": "r0", "waypoints": [[0.5]]}]}, "robots[0].waypoints", id="short-point"),
        pytest.param({"robots": [{"id": "r0", "waypoints": "ab"}]}, "robots[0].waypoints", id="str-waypoints"),
        pytest.param({"robots": [{"id": "r0"}]}, "robots[0].waypoints", id="no-waypoints"),
        pytest.param({"robots": [{"id": "r0", "waypoints": [[0.5, float("nan")]]}]}, "robots[0].waypoints",
                     id="nan-waypoint"),
    ],
)
def test_render_malformed_plan_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    hp.save_map(hp.empty_map(cells=16), tmp_path / "m.json")
    (tmp_path / "p.json").write_text(json.dumps(doc))
    assert run_cli(["render", "--map", str(tmp_path / "m.json"), "--plan", str(tmp_path / "p.json"),
                    "--layers", "occupancy,trajectories"]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["fields", "--map", "m.json", "--label", "apple", "--t", "abc", "--out", "f.hpsf"], "--t"),
    (["bench", "--robots", "3,a"], "--robots"),
    (["bench", "--robots", "2.5"], "--robots"),
])
def test_malformed_flag_exits_2_naming_the_flag(capsys, args, flag):
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "invalid literal" not in err


def test_render_plan_that_is_not_json_exits_2_naming_the_document(tmp_path, capsys):
    hp.save_map(hp.empty_map(cells=16), tmp_path / "m.json")
    (tmp_path / "p.json").write_text("not json")
    assert run_cli(["render", "--map", str(tmp_path / "m.json"), "--plan", str(tmp_path / "p.json"),
                    "--layers", "occupancy,trajectories"]) == 2
    assert "error: (document): invalid JSON" in capsys.readouterr().err


def test_render_field_dump_with_bad_magic_exits_2_naming_it(tmp_path, capsys):
    hp.save_map(hp.empty_map(cells=16), tmp_path / "m.json")
    (tmp_path / "f.hpsf").write_bytes(b"PNG\0" + bytes(64))
    assert run_cli(["render", "--map", str(tmp_path / "m.json"), "--layers", "occupancy,field_arrows",
                    "--field-dump", str(tmp_path / "f.hpsf")]) == 2
    assert "error: magic: " in capsys.readouterr().err


def test_public_names_are_the_ones_callers_use():
    modules = ["bench", "errors", "gridmap", "heatfield", "planner", "render"]
    names = [
        "DegenerateFieldError", "DomainError", "FAMILIES", "FieldCache", "GenerationError", "HeatState",
        "HeatplanError", "MapFormatError", "NoiseSchedule", "ParameterError", "PlacementError", "PlanResult",
        "PlannerConfig", "RenderError", "RenderSpec", "RobotSpec", "Scenario", "ScoreField", "SemanticRegion",
        "SingularConfigurationError", "SuiteReport", "SuiteSpec", "Trajectory", "UnknownLabelError", "WorldMap",
        "aggregate_records", "build_schedule", "build_score_field", "cell_center", "decode_map",
        "decode_scenario", "empty_map", "encode_map", "encode_scenario", "figure_name", "flood_fill",
        "generate_map", "generate_suite", "init_heat", "interpolate", "interrobot_guidance", "is_free",
        "langevin_step", "load_map", "load_scenario", "plan", "render_svg", "resolve_goal_regions",
        "result_to_dict", "result_to_json", "run_one", "run_suite", "sample_heat", "save_map", "save_scenario",
        "score_fields", "solve_to_times", "validate_plan", "world_to_cell", "write_records", "write_report",
    ]
    assert sorted(hp.__all__) == sorted(modules + names)
