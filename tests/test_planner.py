import gc
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heatplan as hp
from heatplan import heatfield as hf, planner
from heatplan.errors import DomainError, ParameterError, SingularConfigurationError
from heatplan.planner import PlannerConfig, _clamp_to_free, _effective_level, _points_free
import oracles


def centered_goal_map(cells=64, label="apple"):
    mid = cells // 2
    cells_list = tuple((c, r) for r in (mid - 1, mid) for c in (mid - 1, mid))
    reg = hp.SemanticRegion(label, cells_list)
    return hp.empty_map(cells=cells, regions=[reg]), reg


# ---------------------------------------------------------------------------
# config


def test_config_defaults_valid():
    cfg = PlannerConfig()
    assert cfg.d_margin > cfg.d_safe
    assert cfg.T == 20 and cfg.time_limit == 180.0


def test_config_rejects_bad_margins():
    with pytest.raises(ParameterError):
        PlannerConfig(d_safe=0.2, d_margin=0.1)
    with pytest.raises(ParameterError):
        PlannerConfig(K=0)
    with pytest.raises(ParameterError):
        PlannerConfig(beta=-1.0)


@pytest.mark.parametrize("field, value", [
    ("T", 1), ("T", 2.0), ("K", 0), ("K", True), ("beta", float("nan")), ("beta", -1.0),
    ("d_safe", 0.0), ("d_margin", 0.05), ("step_ratio", 0.0), ("sigma_min", 0.0), ("sigma_max", 0.005),
    ("seed", -1), ("seed", 1.5), ("time_limit", 0.0), ("goal_tol", -0.1), ("log_floor", 1.0),
])
def test_config_errors_name_the_field(field, value):
    with pytest.raises(ParameterError) as ei:
        PlannerConfig(**{field: value})
    assert ei.value.field == field
    assert str(ei.value).startswith(f"{field} ")


def test_config_overrides_and_unknown_keys():
    cfg = PlannerConfig().with_overrides({"beta": 5.0, "T": 10})
    assert cfg.beta == 5.0 and cfg.T == 10
    # whole floats, as a JSON scenario config may hold them, become ints
    cfg = PlannerConfig().with_overrides({"T": 10.0, "seed": 3.0})
    assert (cfg.T, cfg.seed) == (10, 3) and type(cfg.T) is int
    with pytest.raises(ParameterError):
        PlannerConfig().with_overrides({"gamma": 1.0})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, field, value", [
    ("constructor", "beta", NAN),
    ("constructor", "time_limit", NAN),
    ("constructor", "goal_tol", NAN),
    ("constructor", "step_ratio", INF),
    ("constructor", "sigma_max", INF),
    ("constructor", "T", 20.0),
    ("overrides", "K", 2.5),
    ("overrides", "T", NAN),
    ("overrides", "seed", INF),
    ("overrides", "d_safe", -INF),
    ("constructor", "K", True),
    ("constructor", "goal_tol", False),
    ("overrides", "beta", True),
    ("overrides", "seed", False),
    ("cli", "time_limit", "nan"),
    ("cli", "beta", "inf"),
])
def test_config_rejects_non_finite_and_non_integral(path, field, value, tmp_path, capsys):
    if path == "constructor":
        with pytest.raises(ParameterError, match=field):
            PlannerConfig(**{field: value})
    elif path == "overrides":
        with pytest.raises(ParameterError, match=field):
            PlannerConfig().with_overrides({field: value})
    else:
        from heatplan.cli import main

        m, _ = centered_goal_map(cells=8)
        hp.save_map(m, tmp_path / "m.json")
        sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=0)
        hp.save_scenario(sc, tmp_path / "s.json", map_path="m.json")
        flag = "--" + field.replace("_", "-")
        assert main(["plan", "--scenario", str(tmp_path / "s.json"), flag, value]) == 2
        assert field in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pairwise cost / guidance


def test_cost_zero_at_margin_and_beyond():
    d = 0.12
    pos = np.array([[0.0, 0.0], [d, 0.0]])
    assert oracles.interrobot_cost(pos, d) == 0.0
    pos3 = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    assert oracles.interrobot_cost(pos3, 0.12) == 0.0


def test_cost_one_at_margin_over_e():
    d_margin = 0.12
    pos = np.array([[0.0, 0.0], [d_margin / np.e, 0.0]])
    assert oracles.interrobot_cost(pos, d_margin) == pytest.approx(1.0, rel=1e-12)


def test_cost_coincident_rejected():
    pos = np.array([[0.3, 0.3], [0.3, 0.3]])
    with pytest.raises(SingularConfigurationError):
        oracles.interrobot_cost(pos, 0.12)
    with pytest.raises(SingularConfigurationError):
        hp.interrobot_guidance(pos, 0.12)


def test_guidance_pair_antiparallel_and_repulsive():
    pos = np.array([[0.0, 0.0], [0.05, 0.0]])
    g = hp.interrobot_guidance(pos, 0.12)
    assert g[0] == pytest.approx(-g[1])
    assert g[0, 0] < 0 and g[1, 0] > 0  # pointing away from each other


def test_guidance_zero_when_clear():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.all(hp.interrobot_guidance(pos, 0.12) == 0.0)


def test_guidance_matches_finite_differences():
    rng = np.random.default_rng(11)
    d_margin = 0.12
    h = 1e-6
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        pos = rng.random((n, 2)) * 0.5
        diff = pos[:, None] - pos[None, :]
        dist = np.sqrt((diff**2).sum(-1))
        iu = np.triu_indices(n, 1)
        # keep clear of the kink and of singularities
        if np.any(np.abs(dist[iu] - d_margin) < 1e-4) or np.any(dist[iu] < 1e-3):
            continue
        g = hp.interrobot_guidance(pos, d_margin)
        fd = np.zeros_like(pos)
        for i in range(n):
            for axis in range(2):
                for sign, store in ((1, 0), (-1, 1)):
                    p = pos.copy()
                    p[i, axis] += sign * h
                    if store == 0:
                        up = oracles.interrobot_cost(p, d_margin)
                    else:
                        dn = oracles.interrobot_cost(p, d_margin)
                fd[i, axis] = -(up - dn) / (2 * h)
        scale = max(np.abs(g).max(), 1.0)
        assert np.abs(g - fd).max() <= 1e-6 * scale
        checked += 1


@st.composite
def _cluster(draw):
    """2-14 robots within 0.3 units of one another, their coordinates often
    rounded to a grid of 1/64 (so coordinate differences tie and pairs can
    coincide), and a d_margin that often covers three or more neighbours."""
    n = draw(st.integers(2, 14))
    centre = draw(hnp.arrays(float, 2, elements=st.floats(0.0, 2.0)))
    offsets = draw(hnp.arrays(float, (n, 2), elements=st.floats(-0.15, 0.15)))
    pos = centre + offsets
    if draw(st.booleans()):
        pos = np.round(pos * 64) / 64
    return pos, draw(st.floats(0.02, 0.5))


@settings(deadline=None, max_examples=500)
@given(_cluster())
def test_guidance_equals_the_array_oracle(case):
    """The pair loop gives the bits of the whole-array guidance, signed zeros
    included, and rejects coincident robots as it does."""
    pos, d_margin = case
    try:
        want = oracles.interrobot_guidance(pos, d_margin)
    except SingularConfigurationError:
        with pytest.raises(SingularConfigurationError):
            hp.interrobot_guidance(pos, d_margin)
        return
    got = hp.interrobot_guidance(pos, d_margin)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_guidance_rejects_bad_positions():
    with pytest.raises(ParameterError):
        hp.interrobot_guidance(np.zeros((3,)), 0.12)
    with pytest.raises(ParameterError):
        hp.interrobot_guidance(np.array([[0.0, 0.0], [np.nan, 0.5]]), 0.12)
    assert np.array_equal(hp.interrobot_guidance([[0.5, 0.5]], 0.12), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# langevin_step


def _constant_field(m, vec):
    vecs = np.tile(np.asarray(vec, dtype=float), (m.height_cells, m.width_cells, 1))
    return hf.ScoreField(t=1, vectors=vecs, map=m)


def _schedule_with_alpha(alpha_1):
    # step_ratio chosen so alpha at t=1 equals alpha_1
    return hp.build_schedule(2, 0.01, 1.0, step_ratio=alpha_1 / 0.01)


def test_langevin_pure_score_displacement():
    m = hp.empty_map(cells=64)
    field = _constant_field(m, (1.0, 0.0))
    sched = _schedule_with_alpha(0.1)
    cfg = PlannerConfig(beta=0.0)
    out = hp.langevin_step(np.array([[1.0, 1.0]]), 1, [{1: field}], sched, cfg)
    assert out[0] == pytest.approx([1.005, 1.0], abs=1e-12)


def test_langevin_fixed_point_without_forces():
    m = hp.empty_map(cells=64)
    field = _constant_field(m, (0.0, 0.0))
    sched = _schedule_with_alpha(0.1)
    cfg = PlannerConfig()
    pos = np.array([[0.7, 0.3], [1.3, 1.7]])
    out = hp.langevin_step(pos, 1, [{1: field}] * 2, sched, cfg)
    assert np.array_equal(out, pos)


def test_langevin_guidance_separates_close_pair():
    m = hp.empty_map(cells=64)
    field = _constant_field(m, (0.0, 0.0))
    sched = _schedule_with_alpha(0.1)
    cfg = PlannerConfig()
    pos = np.array([[1.0, 1.0], [1.11, 1.0]])
    out = hp.langevin_step(pos.copy(), 1, [{1: field}] * 2, sched, cfg)
    d0 = np.linalg.norm(pos[1] - pos[0])
    d1 = np.linalg.norm(out[1] - out[0])
    assert d1 > d0


def test_langevin_never_crosses_wall():
    occ = np.zeros((64, 64), dtype=bool)
    occ[:, 32] = True  # vertical wall spanning x in [1.0, 1.03125)
    m = hp.WorldMap("wall", occ)
    vecs = np.tile(np.array([50.0, 0.0]), (64, 64, 1))
    field = hf.ScoreField(t=1, vectors=vecs, map=m)
    sched = _schedule_with_alpha(0.2)
    cfg = PlannerConfig(beta=0.0)
    out = hp.langevin_step(np.array([[0.98, 1.0]]), 1, [{1: field}], sched, cfg)
    # the proposal points across the wall; the robot slides up to it instead
    x = out[0, 0]
    assert 0.98 <= x < 1.0
    assert out[0, 1] == 1.0
    assert hp.is_free(out[0], m)


@st.composite
def _grid_start_end(draw):
    """A random grid up to 16x16 on a square or a 2:1 world, a start in a
    free cell and an end anywhere in the world.  Grid sides are often powers
    of two, so cell faces are exact floats; starts are often cell centers,
    and ends often lie a whole number of half cells away along a diagonal,
    so the walk meets exact corner crossings."""
    side = st.sampled_from([2, 4, 8, 16]) | st.integers(1, 16)
    h, w = draw(side), draw(side)
    occ = draw(hnp.arrays(bool, (h, w)))
    free = np.argwhere(~occ)
    assume(len(free) > 0)
    m = hp.WorldMap("g", occ, world_size=draw(st.sampled_from([(2.0, 2.0), (2.0, 1.0)])))
    hx, hy = m.cell_size
    row, col = free[draw(st.integers(0, len(free) - 1))]
    in_cell = st.sampled_from([0.5, 0.0]) | st.floats(0.0, 1.0, exclude_max=True)
    fx, fy = draw(st.just((0.5, 0.5)) | st.tuples(in_cell, in_cell))
    a = np.array([(col + fx) * hx, (row + fy) * hy])
    assume(hp.is_free(a, m))
    wx, wy = m.world_size
    diagonal = st.tuples(st.integers(1, 4), st.sampled_from([-1, 1]), st.sampled_from([-1, 1])).map(
        lambda k: a + np.array([k[1] * k[0] * hx / 2, k[2] * k[0] * hy / 2]))
    anywhere = st.tuples(st.floats(0.0, wx, exclude_max=True), st.floats(0.0, wy, exclude_max=True)).map(np.array)
    b = draw(diagonal | anywhere)
    assume(0.0 <= b[0] < wx and 0.0 <= b[1] < wy)
    return m, a, b


def _corner_case(step_c, step_r):
    """A move from the center of cell (1, 1) of a 4x4 map to the center of
    its diagonal neighbour, through a corner whose own cell is blocked: the
    side cell (1 + step_c, 1) when moving down, (1, 1 + step_r) when up."""
    occ = np.zeros((4, 4), dtype=bool)
    if step_r < 0:
        occ[1, 1 + step_c] = True
    else:
        occ[1 + step_r, 1] = True
    a = np.array([0.75, 0.75])
    return hp.WorldMap("corner", occ), a, a + 0.5 * np.array([step_c, step_r])


@settings(deadline=None, max_examples=500)
@given(_grid_start_end())
# random draws seldom put a sample exactly on a corner, the one point where
# these moves touch the blocked cell
@example(_corner_case(1, -1))
@example(_corner_case(-1, 1))
def test_clamp_to_free_stays_on_segment_and_out_of_walls(case):
    m, a, b = case
    p = _clamp_to_free(m, a, b)
    d = b - a
    k = int(np.argmax(np.abs(d)))
    s = (p[k] - a[k]) / d[k] if d[k] else 0.0
    assert -1e-12 <= s <= 1 + 1e-12
    assert np.abs(a + s * d - p).max() <= 1e-12
    # dense sampling is the reference for "never crosses a wall"; a sample
    # that float rounding puts across a cell face is computed again exactly
    samples = a + (np.arange(1, 2001) / 2000)[:, None] * (p - a)
    for k in np.nonzero(~_points_free(m, samples))[0]:
        f = Fraction(int(k) + 1, 2000)
        exact = [float(Fraction(u) + f * (Fraction(v) - Fraction(u))) for u, v in zip(a, p)]
        assert _points_free(m, np.array([exact]))[0], (k, exact)


def _widened_box(m, a, b):
    """The cell box between the cells of ``a`` and ``b``, widened by one cell
    on every side and clipped to the grid: (col_lo, row_lo, col_hi, row_hi),
    upper bounds exclusive, as ``langevin_step`` gates the wall walk."""
    (c0, r0), (c1, r1) = _cell_of(a, m), _cell_of(b, m)
    return (max(min(c0, c1) - 1, 0), max(min(r0, r1) - 1, 0),
            min(max(c0, c1) + 2, m.width_cells), min(max(r0, r1) + 2, m.height_cells))


@st.composite
def _free_box_move(draw):
    """A random grid up to 16x16 on a world of 2x2, 2x1 or 1.5x2 units (so
    cells are often not square), a start ``a`` and a proposal ``b`` clipped
    as the sampler clips it, each often on a cell face or corner, and random
    obstacles that, in most draws, are cleared from the widened box."""
    side = st.sampled_from([2, 4, 8, 16]) | st.integers(1, 16)
    h, w = draw(side), draw(side)
    wx, wy = draw(st.sampled_from([(2.0, 2.0), (2.0, 1.0), (1.5, 2.0)]))
    hx, hy = wx / w, wy / h

    def coord(extent, size, last):
        face = st.integers(0, last).map(lambda k: k * size)
        half = st.integers(0, 2 * last).map(lambda k: k * size / 2)
        return draw(face | half | st.floats(0.0, extent, exclude_max=True))

    a = np.array([coord(wx, hx, w - 1), coord(wy, hy, h - 1)])
    b = np.array([coord(wx, hx, w), coord(wy, hy, h)])
    b = np.minimum(np.maximum(0.0, b), (wx * (1 - 1e-12), wy * (1 - 1e-12)))
    occ = draw(hnp.arrays(bool, (h, w)))
    m = hp.WorldMap("g", np.zeros((h, w), dtype=bool), world_size=(wx, wy))
    c_lo, r_lo, c_hi, r_hi = _widened_box(m, a, b)
    if draw(st.integers(0, 3)):
        occ[r_lo:r_hi, c_lo:c_hi] = False
    assume(not occ.all())
    return hp.WorldMap("g", occ, world_size=(wx, wy)), a, b


def _face_case():
    """A move whose walk ends one cell beyond the proposal's cell (see
    ``test_wall_walk_can_leave_the_unwidened_box``)."""
    occ = np.array([[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1]], dtype=bool)
    return hp.WorldMap("face", occ), np.array([1.2000000000000002, 4 / 3]), np.array([0.8, 4 / 3])


@settings(deadline=None, max_examples=500)
@given(_free_box_move())
@example(_face_case())
def test_free_widened_box_means_the_walk_keeps_the_proposal(case):
    m, a, b = case
    box = _widened_box(m, a, b)
    c_lo, r_lo, c_hi, r_hi = box
    assert m.obstacles_in(*box) == m.occupancy[r_lo:r_hi, c_lo:c_hi].sum()
    if m.obstacles_in(*box) == 0:
        assert np.array_equal(_clamp_to_free(m, a, b), b)


def test_wall_walk_can_leave_the_unwidened_box():
    """Why the gate widens the box: b = 0.8 lies on the face between
    columns 1 and 2 and rounds into column 2, yet the walk from column 3
    crosses that face before t = 1 and stops short of column 1's obstacle."""
    m, a, b = _face_case()
    occ = m.occupancy
    (c0, r0), (c1, r1) = _cell_of(a, m), _cell_of(b, m)
    assert (c0, c1, r0, r1) == (3, 2, 2, 2) and not occ[2, 2:4].any()
    assert m.obstacles_in(*_widened_box(m, a, b)) > 0
    assert not np.array_equal(_clamp_to_free(m, a, b), b)


def _cell_of(p, m):
    return (min(int(p[0] / m.cell_size[0]), m.width_cells - 1),
            min(int(p[1] / m.cell_size[1]), m.height_cells - 1))


def _langevin_step_per_robot(pos, t, ladders, schedule, config, rngs, noiseless=False):
    """The sampler step in whole-array code, with one level lookup and one
    single-point call of the ``interpolate`` oracle per robot, the guidance
    oracle, per-step draws from each robot's stream, and a wall walk for
    every robot that moved: the reference for the scalar step, the batched
    lookup, the per-plan noise and the free-box gate."""
    worldmap = ladders[0][t].map
    n = len(pos)
    s = np.empty_like(pos)
    alpha = np.empty((n, 1))
    for i in range(n):
        t_eff, field = _effective_level(ladders[i], t, _cell_of(pos[i], worldmap), schedule.T)
        s[i] = oracles.interpolate(field, pos[i])
        alpha[i, 0] = schedule.alpha[t_eff - 1]
    drift = s + config.beta * oracles.interrobot_guidance(pos, config.d_margin) if n > 1 and config.beta > 0 else s
    prop = pos + 0.5 * alpha * alpha * drift
    if not noiseless:
        eps = np.empty_like(pos)
        for i in range(n):
            eps[i] = rngs[i].standard_normal(2)
        prop = prop + alpha * eps
    w, h = worldmap.world_size
    np.clip(prop[:, 0], 0.0, w * (1 - 1e-12), out=prop[:, 0])
    np.clip(prop[:, 1], 0.0, h * (1 - 1e-12), out=prop[:, 1])
    new = prop.copy()
    for i in range(n):
        if new[i, 0] != pos[i, 0] or new[i, 1] != pos[i, 1]:
            new[i] = _clamp_to_free(worldmap, pos[i], prop[i])
    for _round in range(n + 1):
        if n < 2:
            break
        dist = np.sqrt(((new[:, None, :] - new[None, :, :]) ** 2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        bad = dist <= config.d_safe
        if not bad.any():
            break
        revert = bad.any(axis=1) & np.any(new != pos, axis=1)
        if not revert.any():
            break
        new[revert] = pos[revert]
    return new


def test_langevin_batched_lookup_matches_per_robot_reference():
    m = hp.generate_map("room", 3, cells=32)
    cfg = PlannerConfig(T=6, K=4)
    sched = cfg.schedule()
    cache = hf.FieldCache()
    labels = ("hub", "apple", "cone", "kiosk", "apple")
    ladders = [cache.fields(m, label, sched) for label in labels]
    # far corners sit outside the fine levels' supports; the last two robots
    # start 0.11 apart, inside d_margin, so guidance and reverts take part
    starts = np.array([[0.1, 0.1], [1.9, 0.1], [0.1, 1.9], [1.0, 1.0], [1.11, 1.0]])
    assert all(hp.is_free(p, m) for p in starts)
    # the sampler gets each stream's draws for the whole plan at once, as
    # ``plan`` makes them; the reference draws from its own copies of the
    # streams one micro-step at a time
    noise = np.stack([np.random.default_rng([9, i]).standard_normal((cfg.T * cfg.K, 2))
                      for i in range(len(labels))], axis=1)
    rngs = [np.random.default_rng([9, i]) for i in range(len(labels))]
    batched = reference = starts
    escalations = 0
    for t in range(cfg.T, 0, -1):
        for k in range(1, cfg.K + 1):
            step = (cfg.T - t) * cfg.K + k - 1
            noiseless = t == 1 and k == cfg.K
            escalations += sum(
                _effective_level(ladder, t, _cell_of(p, m), sched.T)[0] > t
                for ladder, p in zip(ladders, batched)
            )
            batched = hp.langevin_step(batched, t, ladders, sched, cfg, None if noiseless else noise[step])
            reference = _langevin_step_per_robot(reference, t, ladders, sched, cfg, rngs, noiseless)
            assert np.array_equal(batched, reference)
    assert escalations > 0


@st.composite
def _team_step(draw):
    """A random grid up to 16x16 on a 2x2 world, 2 to 6 robots on free
    points more than d_safe apart, and one random ladder (vectors and
    ``supported`` masks, drawn from a seeded stream) per robot over
    T = 2..4 levels."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    occ = draw(hnp.arrays(bool, (h, w)))
    free = np.argwhere(~occ)
    assume(len(free) > 0)
    m = hp.WorldMap("g", occ)
    d_safe = draw(st.floats(0.02, 0.4))
    cfg = PlannerConfig(beta=draw(st.floats(0.0, 2.0)), d_safe=d_safe, d_margin=d_safe * draw(st.floats(1.05, 2.0)))
    n = draw(st.integers(2, 6))
    cells = free[draw(st.lists(st.integers(0, len(free) - 1), min_size=n, max_size=n))]
    offsets = draw(hnp.arrays(float, (n, 2), elements=st.floats(0.0, 1.0, exclude_max=True)))
    pos = (cells[:, ::-1] + offsets) * m.cell_size
    if draw(st.booleans()):  # a tight cluster: a lattice just wider than d_safe around the first start
        spacing = d_safe * draw(st.floats(1.001, 1.5))
        pos = pos[0] + spacing * np.array([(k % 3, k // 3) for k in range(n)], dtype=float)
    gaps = np.linalg.norm(pos[:, None] - pos[None], axis=-1)[np.triu_indices(n, 1)]
    assume(all(hp.is_free(p, m) for p in pos) and (gaps > d_safe).all())
    T = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, coverage = draw(st.sampled_from([1.0, 10.0, 60.0])), draw(st.sampled_from([None, 0.3, 0.8]))
    ladders = [
        {t: hf.ScoreField(t, rng.uniform(-scale, scale, (h, w, 2)), m,
                          None if coverage is None else rng.random((h, w)) < coverage)
         for t in range(1, T + 1)}
        for _ in range(n)
    ]
    noise = rng.standard_normal((n, 2)) if draw(st.booleans()) else None
    return m, pos, draw(st.integers(1, T)), ladders, hp.build_schedule(T), cfg, noise


@settings(deadline=None, max_examples=100)
@given(_team_step())
def test_langevin_step_keeps_hard_separation_and_free_space(case):
    m, pos, t, ladders, sched, cfg, noise = case
    out = hp.langevin_step(pos, t, ladders, sched, cfg, noise)
    gaps = np.linalg.norm(out[:, None] - out[None], axis=-1)[np.triu_indices(len(out), 1)]
    assert (gaps > cfg.d_safe).all()
    assert _points_free(m, out).all()


def _walk_case():
    """One robot pushed across a wall by its score: the wall walk stops it."""
    occ = np.zeros((16, 16), dtype=bool)
    occ[:, 8] = True
    m = hp.WorldMap("wall", occ)
    ladders = [{t: hf.ScoreField(t, np.tile([50.0, 0.0], (16, 16, 1)), m) for t in (1, 2)}]
    return m, np.array([[0.98, 1.0]]), 2, ladders, hp.build_schedule(2), PlannerConfig(beta=0.0), None


def _revert_case():
    """Two robots 0.11 apart whose noise moves them 0.05 apart: both revert."""
    m = hp.empty_map(cells=16)
    ladders = [{t: hf.ScoreField(t, np.zeros((16, 16, 2)), m) for t in (1, 2)}] * 2
    pos, noise = np.array([[1.0, 1.0], [1.11, 1.0]]), np.array([[0.1, 0.0], [-0.1, 0.0]])
    return m, pos, 2, ladders, hp.build_schedule(2), PlannerConfig(beta=0.0), noise


@settings(deadline=None, max_examples=200)
@given(_team_step())
@example(_walk_case())
@example(_revert_case())
def test_langevin_step_on_lists_equals_the_array_path(case):
    """Positions and noise as lists of [x, y] floats give a list with the
    bits of the array path's result, signed zeros included."""
    _m, pos, t, ladders, sched, cfg, noise = case
    want = hp.langevin_step(pos, t, ladders, sched, cfg, noise)
    got = hp.langevin_step(pos.tolist(), t, ladders, sched, cfg, None if noise is None else noise.tolist())
    assert type(got) is list and all(len(row) == 2 for row in got)
    assert np.array_equal(np.array(got), want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # the array path takes list noise, and the list path array noise
    if noise is not None:
        assert np.array_equal(hp.langevin_step(pos, t, ladders, sched, cfg, noise.tolist()), want)
        assert np.array_equal(np.array(hp.langevin_step(pos.tolist(), t, ladders, sched, cfg, noise)), want)


def test_list_cases_walk_and_revert():
    """The two examples above take the paths they are named for."""
    _m, pos, t, ladders, sched, cfg, noise = _walk_case()
    out = hp.langevin_step(pos.tolist(), t, ladders, sched, cfg, noise)
    assert 0.98 < out[0][0] < 1.0
    _m, pos, t, ladders, sched, cfg, noise = _revert_case()
    rows = pos.tolist()
    out = hp.langevin_step(rows, t, ladders, sched, cfg, noise.tolist())
    assert out == rows and out[0] is rows[0] and out is not rows


_MAP8 = hp.empty_map(cells=8)
_LADDER8 = {t: hf.ScoreField(t, np.zeros((8, 8, 2)), _MAP8) for t in (1, 2, 3)}
_FIELD8 = _LADDER8[1]


def _step(positions, t=1, n_ladders=1, noise=None):
    return lambda: hp.langevin_step(positions, t, [_LADDER8] * n_ladders, hp.build_schedule(3), PlannerConfig(), noise)


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda: hf.interpolate([], np.empty((0, 2))), "field", id="interpolate-no-fields"),
    pytest.param(lambda: hf.interpolate([], []), "field", id="interpolate-no-fields-list"),
    pytest.param(lambda: hf.interpolate([_FIELD8] * 2, [[0.5, 0.5]]), "field", id="interpolate-field-count-list"),
    pytest.param(lambda: hf.interpolate(_FIELD8, np.array([0.5, 0.5, 0.5])), "p", id="interpolate-three-coordinates"),
    pytest.param(lambda: hf.interpolate(_FIELD8, ["a", "b"]), "p", id="interpolate-strings-list"),
    pytest.param(lambda: hf.interpolate(_FIELD8, np.array(["a", "b"])), "p", id="interpolate-strings-array"),
    pytest.param(lambda: hf.interpolate(_FIELD8, [[0.5, 0.5, 0.5]]), "p", id="interpolate-triple-list"),
    pytest.param(_step(np.empty((0, 2)), n_ladders=0), "positions", id="step-no-robots"),
    pytest.param(_step([], n_ladders=0), "positions", id="step-no-robots-list"),
    pytest.param(_step(np.array([[0.5, 0.5, 0.5]])), "positions", id="step-1x3"),
    pytest.param(_step([[0.5, 0.5, 0.5]]), "positions", id="step-1x3-list"),
    pytest.param(_step([[0.5, 0.5], [1.0, 1.0]], noise=np.zeros((1, 2)), n_ladders=2), "noise", id="step-noise-short"),
    pytest.param(_step([[0.5, 0.5], [1.0, 1.0]], noise=[[0.0, 0.0]], n_ladders=2), "noise",
                 id="step-noise-short-list"),
    pytest.param(_step(np.array([[0.5, 0.5]]), t=0), "t", id="step-t0"),
    pytest.param(_step(np.array([[0.5, 0.5]]), t=9), "t", id="step-t9"),
    pytest.param(_step(np.array([[0.5, 0.5]]), n_ladders=2), "ladders", id="step-extra-ladder"),
    pytest.param(lambda: hf.sample_heat(hf.HeatState(np.full((8, 8), 1 / 64), 0.0, _MAP8), np.random.default_rng(0), -1),
                 "n", id="sample-heat-negative"),
])
def test_sampler_inputs_raise_typed_errors(call, field):
    with pytest.raises(ParameterError) as ei:
        call()
    assert ei.value.field == field


def test_langevin_step_rejects_positions_outside_the_world():
    for bad in ([[-5.0, 0.5]], [[0.5, float("nan")]], [[float("inf"), 0.5]]):
        with pytest.raises(DomainError):
            _step(bad)()


class _CountingNumpy:
    """numpy as a module sees it, counting ``array`` and ``asarray`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        self.calls += 1
        return np.array(*args, **kwargs)

    def asarray(self, *args, **kwargs):
        self.calls += 1
        return np.asarray(*args, **kwargs)


def test_plan_keeps_no_array_or_list_per_micro_step(monkeypatch):
    """Positions stay lists from one micro-step to the next, and the history
    keeps floats, not lists: a plan with twice the micro-steps calls
    np.array and np.asarray as often in the planner and the heat-field
    modules, and the objects the garbage collector tracks grow from the
    first micro-step to the last by as many."""
    spec = hp.SuiteSpec(families=("room",), robot_counts=(3,), scenarios_per_config=1, map_variants=1,
                        map_params={"cells": 32})
    (scenario,) = hp.generate_suite(spec)
    cache = hf.FieldCache()
    step = planner.langevin_step
    arrays, growth = [], []
    for K in (2, 4):
        hp.plan(scenario, PlannerConfig(T=6, K=K), cache)  # solve the ladders outside the count
        spy, tracked = _CountingNumpy(), []

        def counted_step(*args, **kwargs):
            tracked.append(len(gc.get_objects()))
            return step(*args, **kwargs)

        # with the collector off, only reference counting frees objects, so
        # the tracked count does not depend on when a collection falls
        enabled = gc.isenabled()
        gc.disable()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(planner, "np", spy)
                patch.setattr(hf, "np", spy)
                patch.setattr(planner, "langevin_step", counted_step)
                hp.plan(scenario, PlannerConfig(T=6, K=K), cache)
        finally:
            if enabled:
                gc.enable()
        arrays.append(spy.calls)
        growth.append(tracked[-1] - tracked[0])
    assert arrays[0] == arrays[1]
    assert growth[0] == growth[1]


def _guidance_terms(pos, d_margin):
    """Per robot, how many other robots lie within ``d_margin``: the number
    of nonzero terms in its row of the guidance sum."""
    dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    return (dist < d_margin).sum(axis=1)


@settings(deadline=None, max_examples=100)
@given(_team_step(), st.integers(1, 3), st.data())
def test_plan_permutation_equivariance(case, K, data):
    """A short plan, T = 2..4 levels of K = 1..3 micro-steps, run on the
    robots in two orders: permuting the positions, ladders and noise rows
    permutes every step's output exactly.

    The guidance adds each robot's neighbour terms in index order, and a sum
    of three or more terms may round differently in another order, so a plan
    stops being compared once some robot has three neighbours within
    ``d_margin`` (``plan`` itself runs robots in id order)."""
    _m, pos, _t, ladders, sched, cfg, _noise = case
    n = len(pos)
    perm = np.array(data.draw(st.permutations(range(n))))
    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((sched.T * K, n, 2))
    permuted_ladders = [ladders[i] for i in perm]
    a, b = pos, pos[perm]
    for t in range(sched.T, 0, -1):
        for k in range(1, K + 1):
            if cfg.beta > 0 and (_guidance_terms(a, cfg.d_margin) > 2).any():
                return
            eps = None if t == 1 and k == K else noise[(sched.T - t) * K + k - 1]
            a = hp.langevin_step(a, t, ladders, sched, cfg, eps)
            b = hp.langevin_step(b, t, permuted_ladders, sched, cfg, None if eps is None else eps[perm])
            assert np.array_equal(b, a[perm])


# ---------------------------------------------------------------------------
# full plan


# sha256 of result_to_json(include_timing=False, include_micro=True) for one
# generated scenario per case, planned with T=6, K=4.  The room 32x32 N=9
# plan makes 16 separation reverts and 112 support escalations, the shelf
# 64x64 N=9 plan 16 and 115.
PINNED_RESULTS = [
    ("drop_region", 32, 1, "629970f2efacbb60e27fb0eeea00c1c0d8dd368c26dd03d9a5193e0b4a3027e9"),
    ("conveyor", 32, 3, "8a62feaf6806e998c974ff01bdef9e0425e7002bc6db3a388305b91969d0844e"),
    ("room", 32, 9, "0b009b459fc133f9d7dfeb7f86233822309ff8118ef63fcedfc2f20788af17c8"),
    ("shelf", 64, 3, "ce5141805d1b382d261bdc3632fe408956b57cf71c01b3b856d971c092e3dfcc"),
    ("drop_region", 64, 9, "ac0de5b59022fa8a48d31bd9686a6c7848c355b14b9c858f11826d1c526341ea"),
    ("conveyor", 64, 1, "bea28d0980019af74ef12e21e991ee2664563d8bd000923e1d76f34b9411dd21"),
    ("room", 64, 3, "3429399ab6168eae78d5fa684b8ac7e80b98d9264b8bcefe4aa1a9f6f006754c"),
    ("shelf", 64, 9, "a75a51077ae6bc31699a071ee76c6807b7437ef6ef13d5ef72dae30e5bee74db"),
]


@pytest.mark.parametrize("family, cells, n, digest", PINNED_RESULTS)
def test_result_bytes_are_pinned(family, cells, n, digest):
    """Every byte of a plan's result, micro-steps included, is pinned: a
    change meant to keep the numerics must keep these digests, and one
    meant to alter them must update them on purpose."""
    spec = hp.SuiteSpec(families=(family,), robot_counts=(n,), scenarios_per_config=1, map_variants=1,
                        map_params={"cells": cells})
    (scenario,) = hp.generate_suite(spec)
    result = hp.plan(scenario, PlannerConfig(T=6, K=4))
    text = hp.result_to_json(result, include_timing=False, include_micro=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_plan_single_robot_reaches_center_goal():
    m, reg = centered_goal_map()
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "move to the apple", (0.1, 0.1)),), seed=3)
    res = hp.plan(sc)
    assert res.success
    assert res.goal_reached == (True,)
    final = res.trajectories[0].micro_steps[-1]
    center = np.array([1.0, 1.0])
    assert np.linalg.norm(final - center) <= 0.08  # region halfwidth + goal_tol


def test_plan_counts_and_start_anchor():
    m, _ = centered_goal_map()
    start = (0.25, 0.3)
    cfg = PlannerConfig(T=8, K=5)
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", start),), seed=1)
    res = hp.plan(sc, cfg)
    tr = res.trajectories[0]
    assert tr.waypoints.shape == (9, 2)
    assert tr.micro_steps.shape == (40, 2)
    assert tuple(tr.waypoints[0]) == start


def test_plan_deterministic_and_seed_echo():
    m, _ = centered_goal_map()
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", None),), seed=12)
    a = hp.plan(sc)
    b = hp.plan(sc)
    assert a.seed == 12
    assert np.array_equal(a.trajectories[0].micro_steps, b.trajectories[0].micro_steps)
    c = hp.plan(sc, PlannerConfig(seed=99))
    assert c.seed == 99
    assert not np.array_equal(a.trajectories[0].micro_steps, c.trajectories[0].micro_steps)


def test_plan_is_independent_of_scenario_robot_order():
    regs = [
        hp.SemanticRegion("apple", ((50, 50), (51, 50))),
        hp.SemanticRegion("box", ((10, 50), (11, 50))),
        hp.SemanticRegion("dock", ((50, 10), (51, 10))),
    ]
    m = hp.empty_map(cells=64, regions=regs)
    robots = (
        hp.RobotSpec("alpha", "apple", (0.3, 0.3)),
        hp.RobotSpec("bravo", "box", (1.7, 0.3)),
        hp.RobotSpec("carol", "dock", (0.3, 1.7)),
    )
    ra = hp.plan(hp.Scenario(m, robots, seed=4))
    rb = hp.plan(hp.Scenario(m, robots[::-1], seed=4))
    ta = {t.robot_id: t for t in ra.trajectories}
    tb = {t.robot_id: t for t in rb.trajectories}
    for rid in ("alpha", "bravo", "carol"):
        assert np.array_equal(ta[rid].micro_steps, tb[rid].micro_steps)


def test_plan_rejects_given_starts_within_d_safe():
    """The error's field is ``robots[j].start`` for the pair's later robot,
    j in the scenario's own order, although ``plan`` places starts in id
    order."""
    m, _ = centered_goal_map()
    robots = (
        hp.RobotSpec("r0", "apple", (0.30, 0.30)),
        hp.RobotSpec("r1", "apple", (1.50, 1.50)),
        hp.RobotSpec("r2", "apple", (0.35, 0.30)),  # 0.05 from r0, d_safe is 0.10
    )
    for listed, j in ((robots, 2), (robots[::-1], 2), (robots[2:] + robots[:1], 1)):
        with pytest.raises(ParameterError, match="'r0' and 'r2'") as ei:
            hp.plan(hp.Scenario(m, listed, seed=1), PlannerConfig(T=3, K=2))
        assert ei.value.field == f"robots[{j}].start"


def test_plan_names_the_sampled_start_that_finds_no_room():
    # one free cell a quarter unit wide: no sampled start clears d_safe = 0.5
    occ = np.ones((8, 8), dtype=bool)
    occ[4, 4] = False
    m = hp.WorldMap("tiny", occ, regions=[hp.SemanticRegion("apple", ((4, 4),))])
    robots = (hp.RobotSpec("b", "apple", None), hp.RobotSpec("a", "apple", (1.125, 1.125)))
    with pytest.raises(ParameterError, match="no start") as ei:
        hp.plan(hp.Scenario(m, robots, seed=1), PlannerConfig(T=3, K=2, d_safe=0.5, d_margin=0.6))
    assert ei.value.field == "robots[0].start"


def test_plan_redraws_a_sampled_start_until_separated():
    m, _ = centered_goal_map()
    cfg = PlannerConfig(T=3, K=2)
    # r1's first draw from its own stream, which r0 is then placed next to
    first = planner._sample_free_start(m, planner._robot_rng(7, "r1"))
    robots = (hp.RobotSpec("r0", "apple", tuple(first + 0.03)), hp.RobotSpec("r1", "apple", None))
    res = hp.plan(hp.Scenario(m, robots, seed=7), cfg)
    start = res.trajectories[1].waypoints[0]
    assert not np.array_equal(start, first)
    assert np.hypot(*(start - res.trajectories[0].waypoints[0])) > cfg.d_safe
    assert m.free[hp.world_to_cell(start, m)[::-1]]


def test_plan_sealed_only_instance_fails_honestly():
    occ = np.zeros((64, 64), dtype=bool)
    occ[28:37, 28:37] = True
    occ[30:35, 30:35] = False
    m = hp.WorldMap(
        "sealed", occ,
        regions=[hp.SemanticRegion("apple", ((31, 31), (32, 31), (31, 32), (32, 32)))],
    )
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.2, 0.2)),), seed=5)
    res = hp.plan(sc)
    assert not res.success
    assert res.goal_reached == (False,)
    assert not res.static_violations  # it fails by not arriving, not by crashing


def test_plan_ood_redirects_to_reachable_instance():
    occ = np.zeros((64, 64), dtype=bool)
    occ[44:53, 8:17] = True
    occ[46:51, 10:15] = False  # sealed pocket, top-left area
    sealed = hp.SemanticRegion("apple", ((11, 47), (12, 47), (11, 48), (12, 48)))
    open_reg = hp.SemanticRegion("apple", ((48, 48), (49, 48), (48, 49), (49, 49)))
    m = hp.WorldMap("dual", occ, regions=[sealed, open_reg])
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "move to the apple", (0.6, 0.6)),), seed=6)
    res = hp.plan(sc)
    assert res.goal_reached == (True,)
    final = res.trajectories[0].micro_steps[-1]
    open_center = np.array(hp.cell_center((48, 48), m)) + np.array(m.cell_size) / 2
    assert np.linalg.norm(final - open_center) <= 0.1


def test_plan_timeout_flag():
    m, _ = centered_goal_map()
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=0)
    res = hp.plan(sc, PlannerConfig(time_limit=1e-9))
    assert res.timed_out and not res.success
    # no outer step ran: the start is the only waypoint
    assert res.trajectories[0].waypoints.tolist() == [[0.1, 0.1]]
    assert res.trajectories[0].micro_steps.shape == (0, 2)


def test_plan_scenario_config_overrides():
    m, _ = centered_goal_map()
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=0, config={"T": 5, "K": 2})
    res = hp.plan(sc)
    assert res.trajectories[0].waypoints.shape == (6, 2)
    assert res.trajectories[0].micro_steps.shape == (10, 2)


# ---------------------------------------------------------------------------
# validation


def test_validate_flags_obstacle_point():
    occ = np.zeros((64, 64), dtype=bool)
    occ[30:34, 30:34] = True
    m = hp.WorldMap("v", occ, regions=[hp.SemanticRegion("apple", ((5, 5),))])
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=0)
    wp = np.array([[0.1, 0.1], [1.0, 1.0]])  # second point inside the block
    micro = np.array([[1.0, 1.0]])
    tr = hp.Trajectory("r0", wp, micro)
    static, inter, goals = hp.validate_plan([tr], sc, PlannerConfig())
    assert len(static) == 1 and static[0]["robot"] == "r0" and static[0]["step"] == 0
    assert goals == (False,)


def test_validate_flags_segment_crossing():
    occ = np.zeros((64, 64), dtype=bool)
    occ[:, 32] = True
    m = hp.WorldMap("wall", occ, regions=[hp.SemanticRegion("apple", ((5, 5),))])
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=0)
    wp = np.array([[0.9, 1.0], [1.2, 1.0]])  # endpoints free, segment crosses the wall
    micro = np.array([[1.2, 1.0]])
    tr = hp.Trajectory("r0", wp, micro)
    static, _, _ = hp.validate_plan([tr], sc, PlannerConfig())
    assert len(static) == 1


def test_validate_flags_close_pair():
    m, _ = centered_goal_map()
    sc = hp.Scenario(
        m,
        (hp.RobotSpec("a", "apple", (0.1, 0.1)), hp.RobotSpec("b", "apple", (1.9, 1.9))),
        seed=0,
    )
    micro_a = np.array([[1.0, 1.0], [1.0, 1.0]])
    micro_b = np.array([[1.5, 1.5], [1.05, 1.0]])  # second index closes to 0.05
    tra = hp.Trajectory("a", np.array([[0.1, 0.1], [1.0, 1.0], [1.0, 1.0]]), micro_a)
    trb = hp.Trajectory("b", np.array([[1.9, 1.9], [1.5, 1.5], [1.05, 1.0]]), micro_b)
    static, inter, goals = hp.validate_plan([tra, trb], sc, PlannerConfig())
    assert len(inter) == 1
    assert inter[0]["step"] == 1 and set(inter[0]["robots"]) == {"a", "b"}
    assert inter[0]["distance"] == pytest.approx(0.05)


def test_validate_mismatched_lengths_rejected():
    m, _ = centered_goal_map()
    sc = hp.Scenario(
        m,
        (hp.RobotSpec("a", "apple", (0.1, 0.1)), hp.RobotSpec("b", "apple", (1.9, 1.9))),
        seed=0,
    )
    tra = hp.Trajectory("a", np.array([[0.1, 0.1], [1.0, 1.0]]), np.array([[1.0, 1.0]]))
    trb = hp.Trajectory("b", np.array([[1.9, 1.9], [1.5, 1.5], [1.4, 1.4]]), np.array([[1.5, 1.5], [1.4, 1.4]]))
    with pytest.raises(ParameterError):
        hp.validate_plan([tra, trb], sc, PlannerConfig())


def test_successful_plans_validate_clean():
    # planner + validator cross-check over a batch of random scenarios
    m, _ = centered_goal_map()
    ok = 0
    for seed in range(10):
        sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", None),), seed=seed)
        res = hp.plan(sc)
        if res.success:
            assert not res.static_violations and not res.inter_robot_violations
            ok += 1
    assert ok >= 8


# ---------------------------------------------------------------------------
# serialization


def test_result_json_schema_and_determinism():
    import json

    m, _ = centered_goal_map()
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=2)
    res = hp.plan(sc)
    doc = json.loads(hp.result_to_json(res))
    assert set(doc) == {"scenario", "seed", "success", "timed_out", "robots", "violations", "planning_time_s"}
    assert doc["robots"][0]["id"] == "r0"
    assert len(doc["robots"][0]["waypoints"]) == 21
    assert "micro_steps" not in doc["robots"][0]
    with_micro = json.loads(hp.result_to_json(res, include_micro=True))
    assert len(with_micro["robots"][0]["micro_steps"]) == len(res.trajectories[0].micro_steps)
    # identical runs serialize identically apart from timing
    res2 = hp.plan(sc)
    a = hp.result_to_json(res, include_timing=False)
    b = hp.result_to_json(res2, include_timing=False)
    assert a == b


def test_points_free_helper():
    occ = np.zeros((8, 8), dtype=bool)
    occ[4, 4] = True
    m = hp.WorldMap("x", occ)
    pts = np.array([[0.1, 0.1], [1.15, 1.15], [3.0, 0.1], [-0.1, 0.1]])
    got = _points_free(m, pts)
    assert got.tolist() == [True, False, False, False]
