"""Span arithmetic, wrapper lifetime and metric naming of the benchmark."""

import json
import re
from pathlib import Path

import pytest

import heatplan as hp
import layertrace
from layertrace import LAYER_METRICS, Tracer, layer_metrics, self_times
from workloads import tail

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, parent, name, start, end, plan=None, tag=None):
    return (sid, parent, name, start, end, plan, 0, tag)


def test_self_time_of_nested_spans():
    spans = [
        span(1, None, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 4.0),
        span(3, 2, "d", 2.0, 3.0),
        span(4, 1, "c", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)   # 10 - (3 + 4)
    assert own[2] == pytest.approx(2.0)   # 3 - 1
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(1, None, "suite", 0.0, 10.0),
        span(2, 1, "w1", 1.0, 6.0),
        span(3, 1, "w2", 4.0, 8.0),
        span(4, None, "q", 0.0, 10.0),
        span(5, 4, "late", 8.0, 12.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)   # union [1, 8] covers 7
    assert own[4] == pytest.approx(8.0)   # only [8, 10] lies inside


def test_layer_metrics_split_plan_time_and_cache_outcomes():
    spans = [
        span(1, None, "plan", 0.0, 1.0, plan=1),
        span(2, 1, "FieldCache.fields", 0.0, 0.5, plan=1),
        span(3, 2, "score_fields", 0.1, 0.5, plan=1, tag=["h", "desk"]),
        span(4, 1, "FieldCache.fields", 0.5, 0.55, plan=1),
        span(5, 1, "langevin_step", 0.6, 0.8, plan=1),
        span(6, 5, "interpolate", 0.65, 0.7, plan=1),
        span(7, 5, "interpolate", 0.7, 0.75, plan=1),
        span(8, 1, "validate_plan", 0.9, 0.95, plan=1),
    ]
    metrics, gone = layer_metrics(spans, passes=1, resident_bytes=2**20, overhead_ratio=1.0)
    value = {k: m["value"] for k, m in metrics.items()}
    assert not gone
    assert value["heatfield.FieldCache.fields.misses"] == 1
    assert value["heatfield.FieldCache.fields.hits"] == 1
    assert value["planner.interpolate.calls"] == 2
    assert value["planner.interpolate.s"] == pytest.approx(0.1)
    assert value["planner.langevin_step.s"] == pytest.approx(0.1)
    assert value["planner.plan.self_s"] == pytest.approx(1.0 - 0.55 - 0.2 - 0.05)
    assert value["heatfield.FieldCache.resident_mb"] == pytest.approx(1.0)


def test_metric_that_lost_its_function_is_reported_absent():
    metrics, gone = layer_metrics([], passes=1, resident_bytes=0, overhead_ratio=1.0,
                                  absent={"interpolate"})
    assert "planner.interpolate.s" in gone and "planner.interpolate.s" not in metrics
    assert "planner.validate_plan.s" in metrics


def test_missing_target_is_absent_not_fatal(tmp_path):
    targets = [("gone", hp, "no_such_function", None)]
    with Tracer(tmp_path, targets) as tracer:
        pass
    assert tracer.absent == {"gone"}


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in layertrace.default_targets()]
    spec = hp.SuiteSpec(families=("room",), robot_counts=(2,), scenarios_per_config=2,
                        map_variants=1, base_seed=3, map_params={"cells": 32})
    config = hp.PlannerConfig(T=4, K=2)
    with Tracer(tmp_path) as tracer:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        report = hp.run_suite(hp.generate_suite(spec), config, workers=2)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert len(report.records) == 2
    names = {s[layertrace.NAME] for s in tracer.spans}
    # run_one and plan only run inside the pool workers
    assert {"generate_suite", "generate_map", "run_suite", "run_one", "plan", "interpolate"} <= names
    assert not list(tmp_path.glob("spans-*"))


def test_metric_names_and_units_are_well_formed():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names + [name for name, _, _ in LAYER_METRICS]:
        assert NAME.fullmatch(name), name
    for unit in [m["unit"] for m in declared] + [unit for _, unit, _ in LAYER_METRICS]:
        assert UNIT.fullmatch(unit), unit
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [name for name, _, _ in LAYER_METRICS]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(30, 0, -1))
    assert tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert tail([3, 1, 2]) == (3, 100.0)
    assert tail(list(range(20))) == (19, 100.0)   # p50 would not be a tail
    assert tail(list(range(21))) == (10, pytest.approx(100 * 11 / 21))
    # p90 of 100 plans run, taken over the 40 of them that were timed
    assert tail(list(range(40)), run=100) == (35, pytest.approx(90.0))
