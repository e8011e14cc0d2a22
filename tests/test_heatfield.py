import base64
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heatplan as hp
from heatplan import heatfield as hf
from heatplan.errors import (
    DegenerateFieldError,
    DomainError,
    MapFormatError,
    ParameterError,
    PlacementError,
)
import oracles
from oracles import score_ascent_reaches


def point_source_map(cells=128):
    m = hp.empty_map(cells=cells)
    src = [hp.SemanticRegion("apple", ((cells // 2, cells // 2),))]
    return m, src


def analytic_cell_masses(m, goal_cell, t):
    """Exact free-space Gaussian kernel integrated over cells (erf products)."""
    from scipy.special import erf

    hx, hy = m.cell_size
    gx, gy = hp.cell_center(goal_cell, m)
    ex = np.arange(m.width_cells + 1) * hx
    ey = np.arange(m.height_cells + 1) * hy
    cx = (erf((ex[1:] - gx) / math.sqrt(4 * t)) - erf((ex[:-1] - gx) / math.sqrt(4 * t))) / 2
    cy = (erf((ey[1:] - gy) / math.sqrt(4 * t)) - erf((ey[:-1] - gy) / math.sqrt(4 * t))) / 2
    return cy[:, None] * cx[None, :]


# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints_geometric():
    s = hp.build_schedule(20, 0.01, 1.0)
    assert s.sigma_at(1) == pytest.approx(0.01)
    assert s.sigma_at(20) == pytest.approx(1.0)


def test_schedule_heat_time_is_half_sigma_squared():
    s = hp.build_schedule(20, 0.01, 1.0)
    assert s.heat_time[19] == pytest.approx(0.5)
    assert np.allclose(s.heat_time, s.sigma**2 / 2)


def test_schedule_alpha_proportional_to_sigma():
    s = hp.build_schedule(10, 0.02, 0.7, step_ratio=0.25)
    assert np.allclose(s.alpha, 0.25 * s.sigma)


def test_schedule_strictly_increasing_random_params():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lo = float(rng.uniform(1e-3, 0.1))
        hi = float(rng.uniform(0.2, 2.0))
        T = int(rng.integers(2, 40))
        s = hp.build_schedule(T, lo, hi)
        assert np.all(np.diff(s.sigma) > 0)
        assert np.all(np.diff(s.heat_time) > 0)


def test_schedule_bad_params():
    with pytest.raises(ParameterError):
        hp.build_schedule(1, 0.01, 1.0)
    with pytest.raises(ParameterError):
        hp.build_schedule(10, 0.5, 0.1)
    with pytest.raises(ParameterError):
        hp.build_schedule(10, 0.0, 1.0)


# ---------------------------------------------------------------------------
# init_heat


def test_init_single_cell_holds_unit_mass():
    m, src = point_source_map(32)
    state = hf.init_heat(src, m)
    assert state.u[16, 16] == 1.0
    assert state.u.sum() == 1.0
    assert state.time == 0.0


def test_init_two_instances_half_mass_each():
    m = hp.empty_map(cells=32)
    regs = [
        hp.SemanticRegion("apple", ((4, 4), (5, 4))),
        hp.SemanticRegion("apple", ((20, 20),)),
    ]
    state = hf.init_heat(regs, m)
    assert state.u[4, 4] + state.u[4, 5] == pytest.approx(0.5)
    assert state.u[20, 20] == pytest.approx(0.5)


def test_init_mass_sums_to_one_random_specs():
    rng = np.random.default_rng(7)
    m = hp.empty_map(cells=32)
    for _ in range(50):
        n_inst = int(rng.integers(1, 4))
        regs = []
        for _ in range(n_inst):
            c, r = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            regs.append(hp.SemanticRegion("apple", ((c, r), (c + 1, r))))
        state = hf.init_heat(regs, m)
        assert state.u.sum() == pytest.approx(1.0, abs=1e-12)


def test_init_source_on_obstacle_rejected():
    occ = np.zeros((8, 8), dtype=bool)
    occ[3, 3] = True
    m = hp.WorldMap("o", occ)
    reg = hp.SemanticRegion.__new__(hp.SemanticRegion)  # bypass region validation
    object.__setattr__(reg, "label", "apple")
    object.__setattr__(reg, "cells", ((3, 3),))
    with pytest.raises(PlacementError):
        hf.init_heat([reg], m)


def test_init_without_regions_rejected():
    with pytest.raises(ParameterError):
        hf.init_heat([], hp.empty_map(cells=8))


# ---------------------------------------------------------------------------
# solve_to_times


def test_uniform_state_is_fixed_point():
    m = hp.empty_map(cells=16)
    ops = hf._Solver(m)
    u = np.full((16, 16), 1.0 / 256)
    stepped = u.copy()
    ops.run_steps(stepped, 5, ops.internal_dt)
    assert np.allclose(stepped, u, atol=1e-15)


def test_enclosed_cell_never_changes():
    occ = np.ones((8, 8), dtype=bool)
    occ[4, 4] = False
    occ[1, 1] = False  # second free cell elsewhere
    m = hp.WorldMap("cell", occ)
    reg = hp.SemanticRegion("apple", ((4, 4),))
    states = hf.solve_to_times([reg], m, hp.build_schedule(5, 0.01, 0.5))
    for s in states:
        assert s.u[4, 4] == 1.0


def test_free_space_kernel_fidelity_small():
    # downsized acceptance check: 64 cells doubles h, so allow the h^2-scaled
    # slack; the full-resolution 2% bound runs in the acceptance suite
    m, src = point_source_map(64)
    t = 0.02
    states = hf.solve_to_times(src, m, hp.build_schedule(2, 0.01, math.sqrt(2 * t)))
    u = states[-1].u
    G = analytic_cell_masses(m, (32, 32), t)
    border = np.zeros_like(u, dtype=bool)
    border[10:-10, 10:-10] = True
    mask = border & (u >= 1e-6 * u.max())
    rel = np.abs(u - G)[mask] / G[mask]
    assert rel.max() <= 0.03


def test_snapshot_times_and_conservation():
    m = hp.generate_map("room", 1, cells=64)
    label = m.labels()[0]
    sched = hp.build_schedule(20)
    states = hf.solve_to_times(m.regions_with_label(label), m, sched)
    assert [s.time for s in states] == pytest.approx(list(sched.heat_time), rel=0, abs=0)
    for s in states:
        assert abs(s.u.sum() - 1.0) <= 1e-9
        assert (s.u[m.occupancy] == 0.0).all()
        assert (s.u >= 0.0).all()


@st.composite
def _grid_and_sources(draw):
    """A random occupancy grid up to 16x16 on a square or a 2:1 world (so
    cells are often not square) and 1-3 one-cell source regions."""
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    occ = draw(hnp.arrays(bool, (h, w)))
    free = np.argwhere(~occ)
    assume(len(free) > 0)
    picks = draw(st.lists(st.integers(0, len(free) - 1), min_size=1, max_size=3, unique=True))
    size = draw(st.sampled_from([(2.0, 2.0), (2.0, 1.0)]))
    regions = [hp.SemanticRegion("goal", ((int(free[i][1]), int(free[i][0])),)) for i in picks]
    return hp.WorldMap("g", occ, world_size=size), regions


@settings(deadline=None, max_examples=200)
@given(_grid_and_sources(), st.integers(2, 5))
# grids one cell high with square cells, which the strategy seldom draws
@example(case=(hp.WorldMap("g", np.zeros((1, 1), dtype=bool)), [hp.SemanticRegion("goal", ((0, 0),))]), T=5)
@example(
    case=(hp.WorldMap("g", np.zeros((1, 2), dtype=bool), world_size=(2.0, 1.0)), [hp.SemanticRegion("goal", ((1, 0),))]),
    T=5,
)
def test_solver_invariants_on_random_grids(case, T):
    # level escalation in the sampler relies on supports that only grow with t
    m, regions = case
    states = hf.solve_to_times(regions, m, hp.build_schedule(T))
    for s in states:
        assert abs(s.u.sum() - 1.0) <= 1e-12
        assert (s.u[m.occupancy] == 0.0).all()
        assert (s.u >= 0.0).all()
    supported = [hf.build_score_field(s, t=t).supported for t, s in enumerate(states, 1)]
    for finer, coarser in zip(supported, supported[1:]):
        assert not (finer & ~coarser).any()


def test_annulus_insulation_exact():
    occ = np.zeros((32, 32), dtype=bool)
    occ[10:21, 10:21] = True
    occ[13:18, 13:18] = False
    m = hp.WorldMap("annulus", occ)
    reg = hp.SemanticRegion("apple", ((15, 15),))
    states = hf.solve_to_times([reg], m, hp.build_schedule(20))
    inside = np.zeros_like(occ)
    inside[13:18, 13:18] = True
    for s in states:
        assert s.u[~inside].sum() == 0.0
        assert s.u[inside].sum() == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=100)
@given(_grid_and_sources(), st.integers(0, 2**32 - 1))
# grids one cell high with square cells, which the strategy seldom draws
@example(case=(hp.WorldMap("g", np.zeros((1, 1), dtype=bool)), []), seed=0)
@example(case=(hp.WorldMap("g", np.zeros((1, 2), dtype=bool), world_size=(2.0, 1.0)), []), seed=0)
def test_apply_is_the_explicit_step_rate(case, seed):
    m, _ = case
    ops = hf._Solver(m)
    u = np.where(m.free, np.random.default_rng(seed).random(m.free.shape), 0.0)
    stepped = u.copy()
    ops.run_steps(stepped, 1, ops.internal_dt)
    assert np.allclose(stepped - u, ops.internal_dt * ops.apply(u), rtol=0, atol=1e-15 * max(u.max(), 1e-300))


def _stencil_2d(m, scale):
    """``add(src, dst)``, dst += scale * A @ src, written on 2-D slices of
    the grid: the reference for the solver's flat-row stencil."""
    free = m.free
    hx, hy = m.cell_size
    isotropic = abs(hx - hy) <= 1e-12 * max(hx, hy)
    c_face = 2.0 / 3.0 if isotropic else 1.0
    inv_hx2, inv_hy2 = 1.0 / (hx * hx), 1.0 / (hy * hy)
    kx = (free[:, 1:] & free[:, :-1]).astype(np.float64) * (c_face * inv_hx2) * scale
    ky = (free[1:, :] & free[:-1, :]).astype(np.float64) * (c_face * inv_hy2) * scale
    kd = None
    if isotropic:
        block = free[:-1, :-1] & free[:-1, 1:] & free[1:, :-1] & free[1:, 1:]
        kd = block.astype(np.float64) * (inv_hx2 / 6.0) * scale

    def add(src, dst):
        fx = (src[:, 1:] - src[:, :-1]) * kx
        fy = (src[1:, :] - src[:-1, :]) * ky
        if kd is not None:
            f1 = (src[1:, 1:] - src[:-1, :-1]) * kd
            f2 = (src[1:, :-1] - src[:-1, 1:]) * kd
        dst[:, :-1] += fx
        dst[:, 1:] -= fx
        dst[:-1, :] += fy
        dst[1:, :] -= fy
        if kd is not None:
            dst[:-1, :-1] += f1
            dst[1:, 1:] -= f1
            dst[:-1, 1:] += f2
            dst[1:, :-1] -= f2

    return add


@settings(deadline=None, max_examples=200)
@given(_grid_and_sources(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_min=True))
# grids one cell high with square cells, where the diagonals have no pairs
@example(case=(hp.WorldMap("g", np.zeros((1, 1), dtype=bool)), []), seed=0, frac=1.0)
@example(case=(hp.WorldMap("g", np.zeros((1, 2), dtype=bool), world_size=(2.0, 1.0)), []), seed=0, frac=1.0)
def test_flat_stencil_matches_the_2d_stencil_bit_for_bit(case, seed, frac):
    m, _ = case
    ops = hf._Solver(m)
    u = np.where(m.free, np.random.default_rng(seed).random(m.free.shape), 0.0)
    # the explicit step and the shorter landing steps: the only steps the ladder takes
    for dt in (ops.internal_dt, frac * ops.internal_dt):
        got, want = u.copy(), u.copy()
        ops.run_steps(got, 1, dt)
        _stencil_2d(m, dt)(want, want)
        assert np.array_equal(got, want)
    want = np.zeros_like(u)
    _stencil_2d(m, 1.0)(u, want)
    assert np.array_equal(ops.apply(u), want)


def test_stencil_refuses_a_grid_it_cannot_flatten_without_a_copy():
    # a reshape would copy such a grid and update the copy, not the grid
    m = hp.empty_map(cells=8)
    ops = hf._Solver(m)
    wide = np.zeros((8, 16))
    with pytest.raises(AttributeError):
        ops.run_steps(wide[:, :8], 1, ops.internal_dt)
    with pytest.raises(AttributeError):
        ops.apply(np.zeros((8, 8)).T)


def test_ladder_solve_does_not_import_numpy_polynomial():
    code = (
        "import sys, heatplan as hp\n"
        "m = hp.generate_map('room', 1, cells=32)\n"
        "hp.score_fields(m, m.regions_with_label(m.labels()[0]), hp.build_schedule(20))\n"
        "print(sorted(n for n in sys.modules if n.startswith('numpy.polynomial')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _explicit_steps(dt, heat_times):
    """Per heat time, the steps the explicit ladder takes from the level
    before as (step, count) pairs: whole steps of ``dt`` while they stay
    short of it, then one landing step onto it."""
    now, levels = 0.0, []
    for target in heat_times:
        target = float(target)
        level = []
        whole = int((target * (1 - 1e-12) - now) / dt)
        if whole > 0:
            level.append((dt, whole))
            now += whole * dt
        if target - now > 1e-18:
            level.append((target - now, 1))
        now = target
        levels.append(level)
    return levels


def _explicit_ladder(ops, u, heat_times):
    """The all-explicit ladder from ``u``: every level by ``run_steps``."""
    u, levels = u.copy(), []
    for level in _explicit_steps(ops.internal_dt, heat_times):
        for step, count in level:
            ops.run_steps(u, count, step)
        levels.append(u.copy())
    return levels


def test_chebyshev_outputs_are_their_truncated_sums():
    # every level adds exactly its own coefficients, the last of them above
    # CHEB_TOL, checked against the same sums on a dense B = I + (2 / lam_max) A
    occ = np.zeros((10, 12), dtype=bool)
    occ[3:7, 5] = True
    m = hp.WorldMap("wall", occ)
    ops = hf._Solver(m)
    u = np.where(m.free, np.random.default_rng(3).random(occ.shape), 0.0)
    eye = np.eye(u.size)
    A = np.stack([ops.apply(e.reshape(u.shape)).ravel() for e in eye], axis=1)
    B = eye + (2.0 / ops.lam_max) * A
    heat_times = [0.0, 0.002, 0.002, 0.01, 0.02, 0.1]
    coefs = ops.ladder_coefficients(heat_times)
    for a, out in zip(coefs, ops.ladder(u, heat_times)):
        assert abs(a[-1]) > hf.CHEB_TOL
        prev, cur = u.ravel(), B @ u.ravel()
        ref = a[0] * prev
        for k, coef in enumerate(a[1:], 1):
            if k > 1:
                prev, cur = cur, 2.0 * (B @ cur) - prev
            ref = ref + coef * cur
        assert np.abs(out.ravel() - ref).max() <= 1e-14 * u.max()


def test_ladder_coefficients_resolve_the_step_polynomials_at_256_cells(monkeypatch):
    # f_j(x) = prod (1 + dt_i (lam_max / 2) (x - 1))^{n_i} has far more
    # degree than the DCT has nodes, so too few nodes alias its tail onto
    # the kept coefficients: 1,024 nodes leave 3.9e-12 here.  Truncation at
    # CHEB_TOL leaves about 1e-11 with any node count, so the sums are
    # checked untruncated, and the truncated rows as their prefixes.
    ops = hf._Solver(hp.empty_map(cells=256))
    heat_times = hp.build_schedule(20).heat_time
    tol, coefs = hf.CHEB_TOL, ops.ladder_coefficients(heat_times)
    monkeypatch.setattr(hf, "CHEB_TOL", 0.0)
    full = ops.ladder_coefficients(heat_times)
    x = np.random.default_rng(11).uniform(-1.0, 1.0, 200)
    a = 0.5 * ops.lam_max * (x - 1.0)
    f = np.ones_like(x)
    for level, c, whole in zip(_explicit_steps(ops.internal_dt, heat_times), coefs, full):
        for step, count in level:
            f = f * (1.0 + step * a) ** count
        got = np.cos(np.outer(np.arccos(x), np.arange(len(whole)))) @ whole
        assert np.abs(got - f).max() <= 1e-12
        assert np.array_equal(c, whole[:len(c)])
        assert abs(c[-1]) > tol and np.abs(whole[len(c):]).max() <= tol
    assert len(coefs[-1]) > 900  # the longest level takes about 1,000 applications


def test_ladder_coefficients_are_computed_once_per_key():
    """Maps with the same cell size share one set of read-only coefficients
    for a schedule; another schedule computes its own."""
    hf._ladder_coefficients.cache_clear()
    sched = hp.build_schedule(20)
    a = hf._Solver(hp.generate_map("room", 1, cells=32)).ladder_coefficients(sched.heat_time)
    b = hf._Solver(hp.generate_map("conveyor", 2, cells=32)).ladder_coefficients(sched.heat_time)
    assert b is a
    info = hf._ladder_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for c in a:
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.0
    c = hf._Solver(hp.empty_map(cells=32)).ladder_coefficients(hp.build_schedule(10).heat_time)
    assert c is not a and hf._ladder_coefficients.cache_info().misses == 2


@pytest.mark.parametrize("heat_time", [
    [0.001, 0.01, 0.005, 0.02, 0.1, 0.2],   # an early level
    [0.001, 0.01, 0.02, 0.1, 0.2, 0.15],    # the last level
])
def test_decreasing_heat_times_rejected(heat_time):
    m = hp.generate_map("room", 1, cells=32)
    sigma = np.sqrt(2.0 * np.array(heat_time))
    sched = hf.NoiseSchedule(T=len(heat_time), sigma=sigma, alpha=0.3 * sigma, heat_time=np.array(heat_time))
    with pytest.raises(ParameterError, match="nondecreasing"):
        hf.solve_to_times(m.regions_with_label(m.labels()[0]), m, sched)


def test_sealed_component_stays_exactly_cold():
    occ = np.zeros((32, 32), dtype=bool)
    occ[10:21, 10:21] = True
    occ[13:18, 13:18] = False  # sealed pocket
    m = hp.WorldMap("pocket", occ)
    pocket = np.zeros_like(occ)
    pocket[13:18, 13:18] = True
    sched = hp.build_schedule(20)
    # the last levels' recurrences run for more applications than the
    # grid is wide, so heat the stencil let through would reach the pocket
    assert all(len(c) > 32 for c in hf._Solver(m).ladder_coefficients(sched.heat_time)[-4:])
    states = hf.solve_to_times([hp.SemanticRegion("apple", ((3, 3),))], m, sched)
    for s in states:
        assert (s.u[pocket] == 0.0).all()
        assert (s.u[occ] == 0.0).all()


def _ladder_cases():
    """(suite spec, family, map variant, label) for the room and sealed OOD
    maps of the benchmark (seed 1, 64x64, every map and label) and of the
    acceptance suites (128x128: the room ladders and OOD ladders with the
    thinnest level-16 tails, down to u/peak = 8e-14)."""
    bench_room = hp.SuiteSpec(robot_counts=(3,), scenarios_per_config=4, map_variants=4,
                              base_seed=1, map_params={"cells": 64})
    bench_ood = hp.SuiteSpec(families=("drop_region",), robot_counts=(3,), scenarios_per_config=8,
                             map_variants=4, base_seed=1, ood=True, map_params={"cells": 64})
    acc_n3 = hp.SuiteSpec(robot_counts=(3,), scenarios_per_config=30, map_variants=6, base_seed=42)
    acc_ood = hp.SuiteSpec(families=("drop_region",), robot_counts=(1,), scenarios_per_config=50,
                           map_variants=10, base_seed=7, ood=True)
    cases = [(bench_room, "room", v, None) for v in range(4)]
    cases += [(bench_ood, "drop_region", v, None) for v in range(4)]
    cases += [(acc_n3, "room", 0, "barrel"), (acc_n3, "room", 1, "barrel"), (acc_n3, "room", 5, "barrel")]
    cases += [(acc_ood, "drop_region", 4, "hub"), (acc_ood, "drop_region", 5, "cone")]
    return [pytest.param(*c, id=f"{c[1]}-{c[0].base_seed}-v{c[2]}-{c[3] or 'all'}") for c in cases]


@pytest.mark.parametrize("spec, family, variant, only_label", _ladder_cases())
def test_levels_are_the_explicit_ladder(spec, family, variant, only_label):
    from heatplan.bench import _suite_maps
    from heatplan.gridmap import hop_distances

    m = _suite_maps(spec, family)[variant]
    sched = hp.build_schedule(20)
    ops = hf._Solver(m)
    for label in [only_label] if only_label else m.labels():
        regions = m.regions_with_label(label)
        u0 = hf.init_heat(regions, m).u
        states = hf.solve_to_times(regions, m, sched)
        explicit = _explicit_ladder(ops, u0, sched.heat_time)
        for t, (raw, state, ref) in enumerate(zip(ops.ladder(u0, sched.heat_time), states, explicit), 1):
            # the recurrence's error is absolute, near CHEB_TOL times the
            # peak: no cell below that before the tail cut
            assert raw.min() >= -hf.CHEB_TOL * raw.max()
            assert np.abs(state.u - ref).max() <= 1e-9 * ref.max()
            supported = hf.build_score_field(state, t=t).supported
            assert not (supported & ~hf.build_score_field(hf.HeatState(ref, 0.0, m)).supported).any()
        # by the last level the heat fills the sources' whole component
        component = hop_distances(m.free, [c for r in regions for c in r.cells]) >= 0
        assert np.array_equal(supported, component)


# ---------------------------------------------------------------------------
# score fields


def test_score_matches_analytic_gaussian_gradient():
    m, src = point_source_map(128)
    t = 0.02
    states = hf.solve_to_times(src, m, hp.build_schedule(2, 0.01, math.sqrt(2 * t)))
    field = hf.build_score_field(states[-1])
    g = np.array(hp.cell_center((64, 64), m))
    v = hf.interpolate(field, g + np.array([0.2, 0.0]))
    assert v[0] == pytest.approx(-5.0, rel=0.02)
    assert abs(v[1]) <= 0.05


def test_score_zero_at_symmetric_peak():
    m, src = point_source_map(64)
    states = hf.solve_to_times(src, m, hp.build_schedule(2, 0.01, 0.2))
    field = hf.build_score_field(states[-1])
    v = field.vectors[32, 32]
    assert np.linalg.norm(v) <= 1e-9


def test_sealed_pocket_scores_vanish():
    occ = np.zeros((64, 64), dtype=bool)
    occ[20:31, 20:31] = True
    occ[23:28, 23:28] = False  # sealed pocket
    m = hp.WorldMap("pocket", occ)
    reg = hp.SemanticRegion("apple", ((5, 5),))
    states = hf.solve_to_times([reg], m, hp.build_schedule(20))
    field = hf.build_score_field(states[-1])
    mags = np.sqrt((field.vectors**2).sum(-1))
    pocket = np.zeros_like(occ)
    pocket[23:28, 23:28] = True
    outside_free = m.free & ~pocket
    median_mag = np.median(mags[outside_free])
    assert mags[pocket].max() <= 1e-6 * median_mag


def test_score_field_zero_mass_rejected():
    m = hp.empty_map(cells=8)
    state = hf.HeatState(u=np.zeros((8, 8)), time=0.0, map=m)
    with pytest.raises(DegenerateFieldError):
        hf.build_score_field(state)


def test_obstacle_cells_get_zero_vector():
    m = hp.generate_map("room", 4, cells=64)
    label = m.labels()[0]
    states = hf.solve_to_times(m.regions_with_label(label), m, hp.build_schedule(5))
    field = hf.build_score_field(states[-1])
    assert (field.vectors[m.occupancy] == 0.0).all()
    assert np.isfinite(field.vectors).all()


# ---------------------------------------------------------------------------
# interpolation


def _linear_field(cells=16):
    m = hp.empty_map(cells=cells)
    vecs = np.zeros((cells, cells, 2))
    for r in range(cells):
        for c in range(cells):
            vecs[r, c] = (c + 0.5 * r, r - 0.25 * c)
    return hf.ScoreField(t=1, vectors=vecs, map=m)


def test_interpolate_exact_at_cell_centers():
    field = _linear_field()
    m = field.map
    for cell in ((0, 0), (3, 7), (15, 15), (8, 1)):
        v = hf.interpolate(field, hp.cell_center(cell, m))
        assert v == pytest.approx(field.vectors[cell[1], cell[0]], abs=1e-12)


def test_interpolate_midpoint_average():
    field = _linear_field()
    m = field.map
    a = np.array(hp.cell_center((4, 5), m))
    b = np.array(hp.cell_center((5, 5), m))
    v = hf.interpolate(field, (a + b) / 2)
    expect = (field.vectors[5, 4] + field.vectors[5, 5]) / 2
    assert v == pytest.approx(expect, abs=1e-12)


def test_interpolate_four_cell_center_mean():
    field = _linear_field()
    m = field.map
    corners = [(4, 5), (5, 5), (4, 6), (5, 6)]
    pts = np.array([hp.cell_center(c, m) for c in corners])
    v = hf.interpolate(field, pts.mean(axis=0))
    expect = np.mean([field.vectors[r, c] for c, r in corners], axis=0)
    assert v == pytest.approx(expect, abs=1e-12)


def test_interpolate_clamps_to_hull_and_rejects_outside():
    field = _linear_field()
    m = field.map
    v_edge = hf.interpolate(field, (1e-9, 1e-9))
    assert v_edge == pytest.approx(field.vectors[0, 0], abs=1e-6)
    with pytest.raises(DomainError):
        hf.interpolate(field, (2.0, 1.0))


def test_interpolate_continuity_along_segment():
    m, src = point_source_map(64)
    states = hf.solve_to_times(src, m, hp.build_schedule(2, 0.01, 0.3))
    field = hf.build_score_field(states[-1])
    # Lipschitz-style bound: steps of 1e-4 units change the vector by at most
    # the largest adjacent-cell difference (grid Lipschitz constant) * step
    vecs = field.vectors
    lip = max(
        np.abs(np.diff(vecs, axis=0)).max() / m.cell_size[1],
        np.abs(np.diff(vecs, axis=1)).max() / m.cell_size[0],
    )
    a, b = np.array([0.31, 0.42]), np.array([1.63, 1.17])
    ts = np.linspace(0, 1, 2001)
    pts = a[None] + ts[:, None] * (b - a)[None]
    vals = hf.interpolate(field, pts)
    step = np.linalg.norm(b - a) / 2000
    deltas = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    assert deltas.max() <= 2 * lip * step + 1e-12


@st.composite
def _fields_and_points(draw):
    """1-3 random vector fields on one map of up to 6x6 cells (often one cell
    wide or high, with unequal world sides) and 1-8 points, each paired with
    one of the fields.  A third of the coordinates sit on the lattice hull's
    edges or the map's border, a third on a grid of quarter cells, and a
    third anywhere.  The vectors come from a seeded stream, so the four
    corner terms of a lookup differ, and about a fifth of their components
    are a signed zero."""
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    size = (draw(st.sampled_from([1.0, 2.0, 3.0])), draw(st.sampled_from([1.0, 2.0])))
    m = hp.WorldMap("g", np.zeros((h, w), dtype=bool), world_size=size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sampled_from([0.0, -0.0]))
    fields = []
    for k in range(draw(st.integers(1, 3))):
        vectors = rng.uniform(-8, 8, (h, w, 2))
        vectors[rng.random((h, w, 2)) < 0.2] = zero
        fields.append(hf.ScoreField(t=k + 1, vectors=vectors, map=m))
    n = draw(st.integers(1, 8))

    def coord(extent, cells):
        kind = draw(st.sampled_from(["edge", "quarter", "any"]))
        if kind == "edge":
            half = extent / cells / 2
            return draw(st.sampled_from([0.0, half, extent - half, float(np.nextafter(extent, 0.0))]))
        if kind == "quarter":
            return draw(st.integers(0, 4 * cells - 1)) * (extent / cells / 4)
        return float(rng.uniform(0.0, extent))

    pts = np.array([[coord(size[0], w), coord(size[1], h)] for _ in range(n)])
    picks = [fields[draw(st.integers(0, len(fields) - 1))] for _ in range(n)]
    return picks, pts


def _bilinear_reference(field, p):
    """The bilinear lookup written out for one point: the reference for the
    batched ``interpolate``, in its arithmetic order."""
    m = field.map
    W, H = m.width_cells, m.height_cells
    gx = min(max(p[0] / m.cell_size[0] - 0.5, 0.0), W - 1.0)
    gy = min(max(p[1] / m.cell_size[1] - 0.5, 0.0), H - 1.0)
    i0, j0 = min(int(gx), max(W - 2, 0)), min(int(gy), max(H - 2, 0))
    i1, j1 = i0 + (W > 1), j0 + (H > 1)
    fx, fy = gx - i0, gy - j0
    v = field.vectors
    return (v[j0, i0] * (1 - fx) * (1 - fy) + v[j0, i1] * fx * (1 - fy)
            + v[j1, i0] * (1 - fx) * fy + v[j1, i1] * fx * fy)


@settings(deadline=None, max_examples=300)
@given(_fields_and_points())
def test_interpolate_one_field_per_point_matches_single_queries(case):
    fields, pts = case
    got = hf.interpolate(fields, pts)
    assert got.shape == pts.shape
    for i, (field, p) in enumerate(zip(fields, pts)):
        assert np.array_equal(got[i], hf.interpolate(field, p))
        assert np.array_equal(got[i], hf.interpolate(field, pts)[i])
        assert np.array_equal(got[i], _bilinear_reference(field, p))


@settings(deadline=None, max_examples=500)
@given(_fields_and_points())
def test_interpolate_equals_the_array_oracle(case):
    """The scalar lookup gives the bits of the whole-array one, signed zeros
    included, for one field per point and for one field at every point, and
    so does a list of [x, y] points, as a list."""
    fields, pts = case
    as_list = hf.interpolate(fields, pts.tolist())
    assert type(as_list) is list and all(type(row) is list and len(row) == 2 for row in as_list)
    for got, want in ((hf.interpolate(fields, pts), oracles.interpolate(fields, pts)),
                      (np.array(as_list), oracles.interpolate(fields, pts)),
                      (np.array(hf.interpolate(fields[0], pts.tolist())), oracles.interpolate(fields[0], pts)),
                      (hf.interpolate(fields[0], pts), oracles.interpolate(fields[0], pts)),
                      (hf.interpolate(fields[0], pts[0]), oracles.interpolate(fields[0], pts[0]))):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_interpolate_rejects_field_count_mismatch():
    field = _linear_field()
    with pytest.raises(ParameterError):
        hf.interpolate([field, field], np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError):
        hf.interpolate([field], np.array([[0.5, 2.0]]))
    with pytest.raises(DomainError):
        hf.interpolate(field, np.array([[0.5, 0.5], [np.nan, 0.5]]))


# ---------------------------------------------------------------------------
# sampling


def test_sample_all_mass_one_cell():
    m, src = point_source_map(32)
    state = hf.init_heat(src, m)
    pts = hf.sample_heat(state, np.random.default_rng(0), 500)
    cells = {hp.world_to_cell(p, m) for p in pts}
    assert cells == {(16, 16)}


def test_sample_never_in_obstacles():
    m = hp.generate_map("shelf", 5, cells=64)
    label = m.labels()[0]
    states = hf.solve_to_times(m.regions_with_label(label), m, hp.build_schedule(5))
    pts = hf.sample_heat(states[-1], np.random.default_rng(1), 100_000)
    cols = (pts[:, 0] / m.cell_size[0]).astype(int)
    rows = (pts[:, 1] / m.cell_size[1]).astype(int)
    assert not m.occupancy[rows, cols].any()


def test_sample_uniform_multinomial():
    m = hp.empty_map(cells=8)
    u = np.full((8, 8), 1.0 / 64)
    state = hf.HeatState(u=u, time=0.0, map=m)
    n = 64_000
    pts = hf.sample_heat(state, np.random.default_rng(2), n)
    cols = (pts[:, 0] / m.cell_size[0]).astype(int)
    rows = (pts[:, 1] / m.cell_size[1]).astype(int)
    counts = np.bincount(rows * 8 + cols, minlength=64)
    expect = n / 64
    sd = math.sqrt(n * (1 / 64) * (1 - 1 / 64))
    assert np.abs(counts - expect).max() <= 4 * sd


def test_sample_zero_mass_rejected():
    m = hp.empty_map(cells=8)
    state = hf.HeatState(u=np.zeros((8, 8)), time=0.0, map=m)
    with pytest.raises(DegenerateFieldError):
        hf.sample_heat(state, np.random.default_rng(0), 10)


# ---------------------------------------------------------------------------
# cache and dumps


def test_field_cache_hit_returns_same_object():
    m = hp.generate_map("room", 2, cells=64)
    cache = hp.FieldCache()
    sched = hp.build_schedule(5)
    label = m.labels()[0]
    a = cache.fields(m, label, sched)
    b = cache.fields(m, label, sched)
    assert a is b
    assert set(a.keys()) == set(range(1, 6))


def _rewrite_header(data, **changes):
    """Field dump ``data`` with its JSON header fields replaced."""
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:8 + hlen])
    header.update(changes)
    raw = json.dumps(header).encode("utf-8")
    return data[:4] + len(raw).to_bytes(4, "little") + raw + data[8 + hlen:]


@pytest.mark.parametrize(
    "corrupt, bad_field",
    [
        pytest.param(None, None, id="roundtrip"),
        pytest.param(lambda d, m: (b"HPSX" + d[4:], m), "magic", id="bad-magic"),
        pytest.param(lambda d, m: (d[:6], m), "header_length", id="cut-length"),
        pytest.param(
            lambda d, m: (d[:4] + (10**6).to_bytes(4, "little") + d[8:], m), "header_length",
            id="long-header-length",
        ),
        pytest.param(
            lambda d, m: (d[:4] + (5).to_bytes(4, "little") + b"{oops" + d[8:], m), "header",
            id="bad-json",
        ),
        pytest.param(lambda d, m: (_rewrite_header(d, shape=[32, 32, 2]), m), "shape", id="shape"),
        pytest.param(
            lambda d, m: (d, hp.generate_map("conveyor", 2, cells=64)), "map_hash", id="other-map"
        ),
        pytest.param(lambda d, m: (_rewrite_header(d, t="2"), m), "t", id="t"),
        pytest.param(lambda d, m: (d[:-4], m), "payload", id="cut-payload"),
        pytest.param(lambda d, m: (d + b"\0" * 8, m), "payload", id="long-payload"),
    ],
)
def test_field_dump_roundtrip_bin_and_json(tmp_path, corrupt, bad_field):
    m = hp.generate_map("conveyor", 1, cells=64)
    sched = hp.build_schedule(3)
    label = m.labels()[0]
    fields = hf.score_fields(m, m.regions_with_label(label), sched)
    f = fields[2]
    data = hf.dump_field_bytes(f, sched)
    if corrupt is not None:
        with pytest.raises(MapFormatError) as info:
            hf.load_field_bytes(*corrupt(data, m))
        assert info.value.field == bad_field
        return
    f2 = hf.load_field_bytes(data, m)
    assert f2.t == 2
    assert np.allclose(f2.vectors, f.vectors, atol=1e-5)
    doc = hf.dump_field_json(f, sched)
    assert "map_hash" in doc

    hf.save_field(f, tmp_path / "f.hpsf", sched, "bin")
    f3 = hf.load_field_bytes((tmp_path / "f.hpsf").read_bytes(), m)
    assert np.allclose(f3.vectors, f.vectors, atol=1e-5)


def test_field_dump_keeps_the_support_mask():
    m = hp.generate_map("room", 1, cells=64)
    sched = hp.build_schedule(3)
    f = hf.score_fields(m, m.regions_with_label(m.labels()[0]), sched)[2]
    assert 0 < f.supported.sum() < m.free.sum()  # a partial support, not all-or-nothing
    data = hf.dump_field_bytes(f, sched)
    assert np.array_equal(hf.load_field_bytes(data, m).supported, f.supported)
    doc = json.loads(hf.dump_field_json(f, sched))
    packed = np.frombuffer(base64.b64decode(doc["supported_b64"]), dtype=np.uint8)
    assert np.array_equal(np.unpackbits(packed, count=f.supported.size).reshape(f.supported.shape), f.supported)
    # a dump made without the mask still loads, without one
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:8 + hlen])
    del header["supported_b64"]
    raw = json.dumps(header).encode("utf-8")
    assert hf.load_field_bytes(data[:4] + len(raw).to_bytes(4, "little") + raw + data[8 + hlen:], m).supported is None
    for bad in (doc["supported_b64"][:-4], "not base64!", 7):
        with pytest.raises(MapFormatError) as info:
            hf.load_field_bytes(_rewrite_header(data, supported_b64=bad), m)
        assert info.value.field == "supported"


# ---------------------------------------------------------------------------
# ascent reachability


def test_ascent_reaches_goal_on_open_map():
    m = hp.generate_map("drop_region", 9, cells=64)
    label = m.labels()[0]
    regions = m.regions_with_label(label)
    fields = hf.score_fields(m, regions, hp.build_schedule(20))
    from heatplan.bench import flood_fill

    mask = flood_fill(m, regions[0].cells[0])
    rows, cols = np.nonzero(mask)
    start = (int(cols[0]), int(rows[0]))
    assert score_ascent_reaches(fields, m, start, regions[0])


def test_ascent_fails_from_sealed_pocket():
    occ = np.zeros((64, 64), dtype=bool)
    occ[20:31, 20:31] = True
    occ[23:28, 23:28] = False
    m = hp.WorldMap("pocket", occ)
    goal = hp.SemanticRegion("apple", ((5, 5),))
    fields = hf.score_fields(m, [goal], hp.build_schedule(20))
    assert not score_ascent_reaches(fields, m, (25, 25), goal)
    assert score_ascent_reaches(fields, m, (50, 50), goal)
