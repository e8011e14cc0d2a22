"""Acceptance gate: one test per shipped criterion, each printing a verdict,
and criteria 1 and 2 again on 256x256 maps.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite-level checks
share session fixtures, so the whole gate costs a handful of minutes
single-threaded; every tolerance is asserted exactly as shipped.
"""

import math
import time

import numpy as np
import pytest

import heatplan as hp
from heatplan import bench, heatfield as hf
from heatplan.bench import flood_fill
from heatplan.gridmap import resolve_goal_regions
from heatplan.planner import PlannerConfig, _interrobot_cost, _point_to_region_distance

BASE_SEED = 42
D_SAFE = 0.10


def announce(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def n3_suite():
    """All four families, 30 scenarios each at N=3, library defaults."""
    spec = hp.SuiteSpec(robot_counts=(3,), scenarios_per_config=30, map_variants=6,
                        base_seed=BASE_SEED)
    scenarios = hp.generate_suite(spec)
    t0 = time.perf_counter()
    report = hp.run_suite(scenarios)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def n9_suite():
    spec = hp.SuiteSpec(families=("drop_region",), robot_counts=(9,),
                        scenarios_per_config=30, map_variants=6, base_seed=BASE_SEED)
    return hp.run_suite(hp.generate_suite(spec))


@pytest.fixture(scope="session")
def ood_trials():
    """50 sealed-duplicate trials; per trial, whether the robot finished
    inside the reachable instance."""
    spec = hp.SuiteSpec(families=("drop_region",), robot_counts=(1,),
                        scenarios_per_config=50, map_variants=10, base_seed=7, ood=True)
    scenarios = hp.generate_suite(spec)
    cache = hp.FieldCache()
    cfg = PlannerConfig()
    outcomes = []
    clearances = []
    for sc in scenarios:
        res = hp.plan(sc, cfg, cache=cache)
        regions = resolve_goal_regions(sc.robots[0].instruction, sc.map)
        comp = flood_fill(sc.map, hp.world_to_cell(sc.robots[0].start, sc.map))
        reachable = [r for r in regions if comp[r.cells[0][1], r.cells[0][0]]]
        assert len(regions) == 2 and len(reachable) == 1
        final = res.trajectories[0].micro_steps[-1]
        outcomes.append(
            res.success
            and _point_to_region_distance(final, reachable[0], sc.map) <= cfg.goal_tol
        )
    return outcomes


# ---------------------------------------------------------------------------
# criteria


def _kernel_fidelity(cells):
    """Criterion 1's measure on an empty map ``cells`` wide: the largest
    relative error against the exact free-space kernel at t = 0.02, over
    interior cells above 1e-6 of the peak, the solve time and that cell
    count."""
    from scipy.special import erf

    m = hp.empty_map(cells=cells)
    goal = (cells // 2, cells // 2)
    t_heat = 0.02
    t0 = time.perf_counter()
    states = hf.solve_to_times([hp.SemanticRegion("apple", (goal,))], m, hp.build_schedule(2, 0.01, math.sqrt(2 * t_heat)))
    elapsed = time.perf_counter() - t0
    u = states[-1].u
    hx, hy = m.cell_size
    gx, gy = hp.cell_center(goal, m)
    ex = np.arange(cells + 1) * hx
    cx = (erf((ex[1:] - gx) / math.sqrt(4 * t_heat)) - erf((ex[:-1] - gx) / math.sqrt(4 * t_heat))) / 2
    analytic = cx[:, None] * cx[None, :]
    interior = np.zeros_like(u, dtype=bool)
    interior[10:-10, 10:-10] = True
    mask = interior & (u >= 1e-6 * u.max())
    return float((np.abs(u - analytic)[mask] / analytic[mask]).max()), elapsed, int(mask.sum())


def test_criterion_1_heat_kernel_fidelity():
    max_rel, elapsed, cells = _kernel_fidelity(128)
    announce(1, max_rel <= 0.02 and elapsed < 5.0,
             f"max rel err {max_rel:.4%} (<=2%), solve {elapsed:.2f}s (<5s), {cells} cells")


def test_criterion_2_conservation_and_exclusion():
    sched = hp.build_schedule(20)
    worst_drift = 0.0
    exclusion_ok = True
    for i in range(20):
        fam = hp.FAMILIES[i % 4]
        m = hp.generate_map(fam, 1000 + i, cells=64)
        label = m.labels()[0]
        states = hf.solve_to_times(m.regions_with_label(label), m, sched)
        assert len(states) == 20
        for s in states:
            worst_drift = max(worst_drift, abs(float(s.u.sum()) - 1.0))
            if s.u[m.occupancy].any():
                exclusion_ok = False
    announce(2, worst_drift <= 1e-9 and exclusion_ok,
             f"max |mass-1| {worst_drift:.2e} (<=1e-9), obstacle u exactly zero: {exclusion_ok}")


def test_criteria_1_and_2_at_256_cells():
    max_rel, elapsed, cells = _kernel_fidelity(256)
    m = hp.generate_map("room", 1, cells=256)
    states = hf.solve_to_times(m.regions_with_label(m.labels()[0]), m, hp.build_schedule(20))
    drift = max(abs(float(s.u.sum()) - 1.0) for s in states)
    exclusion_ok = not any(s.u[m.occupancy].any() for s in states)
    announce("1 and 2 at 256x256", max_rel <= 0.02 and elapsed < 5.0 and drift <= 1e-9 and exclusion_ok,
             f"max rel err {max_rel:.4%} (<=2%), solve {elapsed:.2f}s (<5s), {cells} cells; "
             f"max |mass-1| {drift:.2e} (<=1e-9), obstacle u exactly zero: {exclusion_ok}")


def test_criterion_3_guidance_gradient_check():
    rng = np.random.default_rng(BASE_SEED)
    d_margin = 0.12
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        pos = rng.random((n, 2)) * 0.6
        diff = pos[:, None] - pos[None, :]
        dist = np.sqrt((diff**2).sum(-1))
        iu = np.triu_indices(n, 1)
        if np.any(np.abs(dist[iu] - d_margin) < 1e-4) or np.any(dist[iu] < 1e-3):
            continue
        g = hp.interrobot_guidance(pos, d_margin)
        fd = np.zeros_like(pos)
        for i in range(n):
            for axis in range(2):
                up_p = pos.copy()
                up_p[i, axis] += h
                dn_p = pos.copy()
                dn_p[i, axis] -= h
                fd[i, axis] = -(_interrobot_cost(up_p, d_margin) - _interrobot_cost(dn_p, d_margin)) / (2 * h)
        scale = max(float(np.abs(g).max()), 1.0)
        worst = max(worst, float(np.abs(g - fd).max()) / scale)
        checked += 1
    announce(3, worst <= 1e-6, f"max relative FD mismatch {worst:.2e} (<=1e-6) over 100 configs")


def test_criterion_4_reachability_equivalence():
    sched = hp.build_schedule(20)
    agree = 0
    total = 0
    reachable_cases = 0
    for fam in hp.FAMILIES:
        for k in range(30):
            sealed_goal = k % 2 == 1
            m = hp.generate_map(fam, 3000 + k, cells=64, n_labels=2, seal_duplicate=sealed_goal)
            rng = np.random.default_rng((hp.FAMILIES.index(fam), k))
            if sealed_goal:
                goal = m.regions_with_label(m.regions[0].label)[1]  # the sealed instance
            else:
                goal = m.regions[k % len(m.regions)]
            free_rows, free_cols = np.nonzero(m.free)
            i = int(rng.integers(len(free_rows)))
            start = (int(free_cols[i]), int(free_rows[i]))
            mask = flood_fill(m, start)
            reachable = bool(all(mask[r, c] for c, r in goal.cells))
            fields = hf.score_fields(m, [goal], sched)
            ascended = hf._score_ascent_reaches(fields, m, start, goal)
            total += 1
            agree += ascended == reachable
            reachable_cases += reachable
    announce(4, agree == total,
             f"{agree}/{total} ascent/flood-fill agreements ({reachable_cases} reachable, "
             f"{total - reachable_cases} not)")


def test_criterion_5_multi_robot_success_n3(n3_suite):
    report, _wall = n3_suite
    ok = True
    details = []
    for row in report.rows:
        fam_records = [r for r in report.records if r["family"] == row["family"]]
        clean = all(
            r["static_violations"] == 0 and r["inter_robot_violations"] == 0
            for r in fam_records if r["success"]
        )
        ok &= row["success_rate"] >= 0.95 and clean and row["mean_time_s"] < 2.0
        details.append(f"{row['family']} S={row['success_rate']:.3f} T={row['mean_time_s']:.2f}s")
    announce(5, ok, "; ".join(details) + " (S>=0.95, mean T<2s, clean successes)")


def test_criterion_6_scaling_n9(n9_suite):
    row = n9_suite.rows[0]
    announce(6, row["success_rate"] >= 0.90,
             f"drop_region N=9 S={row['success_rate']:.3f} (>=0.90) over {row['scenarios']} scenarios")


def test_criterion_7_ood_redirection(ood_trials):
    rate = sum(ood_trials) / len(ood_trials)
    announce(7, rate >= 0.95, f"{sum(ood_trials)}/{len(ood_trials)} redirects to the reachable instance (>=95%)")


def test_criterion_8_worker_determinism():
    spec = hp.SuiteSpec(families=("room",), robot_counts=(3,), scenarios_per_config=6,
                        map_variants=2, base_seed=BASE_SEED, map_params={"cells": 64})
    scenarios = hp.generate_suite(spec)
    cfg = PlannerConfig(T=10, K=6)
    r1 = hp.run_suite(scenarios, cfg, workers=1, include_result_json=True)
    r8 = hp.run_suite(scenarios, cfg, workers=8, include_result_json=True)
    report_same = (
        hp.write_report(r1, "csv", include_timing=False) == hp.write_report(r8, "csv", include_timing=False)
        and hp.write_report(r1, "json", include_timing=False) == hp.write_report(r8, "json", include_timing=False)
    )
    results_same = all(
        a["result_json"] == b["result_json"] for a, b in zip(r1.records, r8.records)
    )
    announce(8, report_same and results_same,
             f"1 vs 8 workers: reports byte-identical={report_same}, "
             f"{len(r1.records)} PlanResult JSONs identical={results_same} (timing excluded)")


def test_criterion_9_inter_robot_safety(n3_suite, n9_suite):
    report3, _ = n3_suite
    clearances = [
        r["min_clearance"]
        for r in report3.records + n9_suite.records
        if r["success"] and r["min_clearance"] is not None
    ]
    worst = min(clearances)
    announce(9, worst > D_SAFE,
             f"min pairwise distance across {len(clearances)} successful multi-robot runs: "
             f"{worst:.4f} (> d_safe={D_SAFE})")
