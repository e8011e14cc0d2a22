import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heatplan as hp
from heatplan import bench
from heatplan import errors
from heatplan import gridmap
from heatplan import heatfield as hf
from heatplan.errors import GenerationError, ParameterError
from heatplan.gridmap import hop_distances, reachable
from heatplan.planner import PlannerConfig
import oracles


def small_config():
    return PlannerConfig(T=10, K=6)


# ---------------------------------------------------------------------------
# flood fill / BFS


def test_flood_fill_empty_map_all_free():
    m = hp.empty_map(cells=16)
    mask = bench.flood_fill(m, (3, 3))
    assert mask.sum() == 256


def test_flood_fill_excludes_sealed_pocket():
    occ = np.zeros((16, 16), dtype=bool)
    occ[4:9, 4:9] = True
    occ[5:8, 5:8] = False
    m = hp.WorldMap("p", occ)
    mask = bench.flood_fill(m, (0, 0))
    assert not mask[5:8, 5:8].any()
    inner = bench.flood_fill(m, (6, 6))
    assert inner.sum() == 9


def test_flood_fill_obstacle_seed_rejected():
    occ = np.zeros((8, 8), dtype=bool)
    occ[2, 2] = True
    m = hp.WorldMap("x", occ)
    with pytest.raises(ParameterError):
        bench.flood_fill(m, (2, 2))


@pytest.mark.parametrize("seed_cell", [("a", 0), (1.5, 0), (True, 0), (1,), 3, (8, 0), (0, -1)])
def test_flood_fill_seed_cell_must_be_a_cell_of_the_grid(seed_cell):
    with pytest.raises(ParameterError) as ei:
        bench.flood_fill(hp.empty_map(cells=8), seed_cell)
    assert ei.value.field == "seed_cell"


@pytest.mark.parametrize("seed", range(20))
def test_flood_fill_matches_reference_bfs(seed):
    fam = hp.FAMILIES[seed % 4]
    m = hp.generate_map(fam, seed, cells=48)
    cell = m.regions[0].cells[0]
    assert np.array_equal(bench.flood_fill(m, cell), oracles.hop_distances(m.occupancy, [cell]) >= 0)


def test_flood_fill_checks_its_seed_once(monkeypatch):
    # the flood starts from the checked pair, not from a list checked again
    m = hp.generate_map("room", 1, cells=32)
    cell = m.regions[0].cells[0]
    check, calls = gridmap._free_cell, []

    def counted(*args):
        calls.append(args)
        return check(*args)

    for module in (gridmap, bench):
        monkeypatch.setattr(module, "_free_cell", counted)
    mask = bench.flood_fill(m, cell)
    assert len(calls) == 1
    assert np.array_equal(mask, reachable(m.free, [cell]))


@st.composite
def _grid_and_seeds(draw):
    """A random occupancy grid up to 24x24 and 1-4 distinct free cells on it."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    occ = draw(hnp.arrays(bool, (h, w)))
    free = np.argwhere(~occ)
    assume(len(free) > 0)
    picks = draw(st.lists(st.integers(0, len(free) - 1), min_size=1, max_size=4, unique=True))
    return occ, [(int(free[i][1]), int(free[i][0])) for i in picks]


def _assert_hops_match(occ, seeds):
    free = ~occ
    single = hop_distances(free, seeds[:1])
    assert np.array_equal(single, oracles.hop_distances(occ, seeds[:1]))
    assert np.array_equal(hop_distances(free, seeds), oracles.hop_distances(occ, seeds))
    assert np.array_equal(reachable(free, seeds), oracles.hop_distances(occ, seeds) >= 0)
    m = hp.WorldMap("g", occ)
    assert np.array_equal(bench.flood_fill(m, seeds[0]), single >= 0)
    (ac, ar), (bc, br) = seeds[0], seeds[-1]
    assert single[br, bc] == hop_distances(free, seeds[-1:])[ar, ac]


@settings(deadline=None)
@given(_grid_and_seeds())
def test_hop_distances_match_reference_bfs(case):
    _assert_hops_match(*case)


@st.composite
def _wide_grid_and_seeds(draw):
    """A random grid up to 80 cells a side, so that padded rows cross 64-bit
    boundaries, at one of a few obstacle densities, and 1-4 distinct free
    cells on it, drawn from the last column when it has a free cell and a
    coin says so."""
    h = draw(st.integers(1, 80))
    w = draw(st.integers(1, 80))
    density = draw(st.sampled_from((0.0, 0.2, 0.4, 0.55)))
    occ = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)) < density
    free = np.argwhere(~occ)
    if draw(st.booleans()) and (~occ[:, -1]).any():
        free = free[free[:, 1] == w - 1]
    assume(len(free) > 0)
    picks = draw(st.lists(st.integers(0, len(free) - 1), min_size=1, max_size=4, unique=True))
    return occ, [(int(free[i][1]), int(free[i][0])) for i in picks]


def _walled(h, w, wall_col):
    occ = np.zeros((h, w), dtype=bool)
    occ[1:, wall_col] = True  # one gap, in row 0
    return occ


@settings(max_examples=40, deadline=None)
@given(_wide_grid_and_seeds())
@example((np.zeros((1, 80), dtype=bool), [(79, 0)]))
@example((np.zeros((80, 1), dtype=bool), [(0, 79), (0, 3)]))
@example((np.zeros((1, 1), dtype=bool), [(0, 0)]))
@example((np.zeros((3, 63), dtype=bool), [(62, 1)]))  # padded rows of exactly 64 bits
@example((_walled(9, 64, 40), [(63, 8), (63, 0)]))
@example((_walled(70, 79, 1), [(78, 69)]))
def test_hop_distances_match_reference_bfs_on_wide_grids(case):
    _assert_hops_match(*case)


def test_hop_distances_seed_outside_the_grid_is_named():
    free = np.ones((4, 4), dtype=bool)
    for seed in ((-1, 0), (4, 0), (0, -1), (0, 4)):
        for search in (hop_distances, reachable):
            with pytest.raises(ParameterError) as ei:
                search(free, [(1, 1), seed])
            assert ei.value.field == "seed_cells"


@st.composite
def _grid_and_cell_inputs(draw):
    """A random occupancy grid up to 24x24 with a free cell, and 1-4 cell
    inputs: (col, row) pairs inside the grid (on free cells or obstacles) as
    tuples or lists, and pairs off the grid, pairs holding floats, bools,
    strings or None, sequences of another length, strings and bare numbers."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    occ = draw(hnp.arrays(bool, (h, w)))
    assume(not occ.all())
    coord = st.integers(-2, 26)
    inside = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    odd = st.one_of(st.floats(-2, 26), st.booleans(), st.text(max_size=2), st.none())
    bad = st.one_of(
        st.tuples(coord, coord), st.tuples(odd, coord), st.tuples(coord, odd),
        st.lists(coord, max_size=4).filter(lambda v: len(v) != 2), st.text(max_size=3), coord, st.floats(),
    )
    return occ, draw(st.lists(st.one_of(inside, inside.map(list), bad), min_size=1, max_size=4))


def _is_free_cell(cell, occ) -> bool:
    """The cell rule, written out: a list or tuple of two Python ints on a free cell."""
    h, w = occ.shape
    return (type(cell) in (tuple, list) and len(cell) == 2 and all(type(v) is int for v in cell)
            and 0 <= cell[0] < w and 0 <= cell[1] < h and not occ[cell[1], cell[0]])


def _rejected_index(occ, cells) -> dict:
    """Per entry point, the index of the first of ``cells`` it rejects, or
    None, read from the field or message of its ParameterError."""
    m = hp.WorldMap("g", occ)
    found = {}
    # one single-cell region per input; SemanticRegion holds the pair half
    regions, at = [], None
    for j, cell in enumerate(cells):
        try:
            regions.append(hp.SemanticRegion("apple", (cell,)))
        except ParameterError as exc:
            assert exc.field == "cells[0]"
            at = j
            break
    for name, build in (("WorldMap", lambda: hp.WorldMap("g", occ, regions=regions)),
                        ("init_heat", lambda: hf.init_heat(regions, m))):
        found[name] = at
        try:
            if regions:
                build()
        except ParameterError as exc:
            found[name] = int(re.fullmatch(r"regions\[(\d+)\]\.cells\[0\]", exc.field)[1])
    for name, search in (("hop_distances", hop_distances), ("reachable", reachable)):
        found[name] = None
        try:
            search(m.free, cells)
        except ParameterError as exc:
            assert exc.field == "seed_cells"
            found[name] = int(re.search(r"\(item (\d+)\)$", str(exc))[1])
    found["flood_fill"] = None
    for j, cell in enumerate(cells):
        try:
            bench.flood_fill(m, cell)
        except ParameterError as exc:
            assert exc.field == "seed_cell"
            found["flood_fill"] = j
            break
    return found


@settings(deadline=None)
@given(_grid_and_cell_inputs())
@example((np.zeros((4, 4), dtype=bool), [(1, 2), (1.7, 2)]))
@example((np.zeros((4, 4), dtype=bool), [(True, 2)]))
@example((np.zeros((4, 4), dtype=bool), [("3", 2)]))
@example((np.zeros((4, 4), dtype=bool), [1, 2, 3, 4]))
@example((np.eye(4, dtype=bool), [[0, 1], (2, 2)]))
def test_every_cell_input_follows_the_one_rule(case):
    """Region cells, heat sources, flood-fill seeds and BFS seeds reject the
    same inputs and name the same one.  The BFS used to cast its seeds to
    int64, so (1.7, 2) and (True, 2) seeded cell (1, 2), ('3', 2) seeded
    (3, 2), a flat [1, 2, 3, 4] was two cells, and an obstacle seed spread
    hop counts to its neighbours."""
    occ, cells = case
    expected = next((j for j, cell in enumerate(cells) if not _is_free_cell(cell, occ)), None)
    found = _rejected_index(occ, cells)
    assert found == dict.fromkeys(found, expected)
    if expected is None:
        m = hp.WorldMap("g", occ)
        assert np.array_equal(reachable(m.free, cells), np.any([bench.flood_fill(m, c) for c in cells], axis=0))


def test_bfs_length_trivial_cases():
    free = hp.empty_map(cells=16).free
    assert hop_distances(free, [(3, 3)])[3, 3] == 0
    assert hop_distances(free, [(3, 3)])[3, 4] == 1


def test_bfs_length_unreachable_is_none():
    occ = np.zeros((16, 16), dtype=bool)
    occ[4:9, 4:9] = True
    occ[5:8, 5:8] = False
    assert hop_distances(~occ, [(0, 0)])[6, 6] == -1


def test_bfs_length_matches_dijkstra():
    from scipy.sparse import lil_matrix
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(5)
    m = hp.generate_map("room", 3, cells=32)
    free = m.free
    idx = -np.ones(free.shape, dtype=int)
    rows, cols = np.nonzero(free)
    idx[rows, cols] = np.arange(len(rows))
    n = len(rows)
    g = lil_matrix((n, n))
    for r, c in zip(rows, cols):
        for dr, dc in ((0, 1), (1, 0)):
            nr, nc = r + dr, c + dc
            if nr < 32 and nc < 32 and free[nr, nc]:
                g[idx[r, c], idx[nr, nc]] = 1
                g[idx[nr, nc], idx[r, c]] = 1
    dist = dijkstra(g.tocsr(), unweighted=True)
    for _ in range(20):
        i, j = rng.integers(0, n, 2)
        a = (int(cols[i]), int(rows[i]))
        b = (int(cols[j]), int(rows[j]))
        got = hop_distances(free, [a])[b[1], b[0]]
        ref = dist[i, j]
        if np.isinf(ref):
            assert got == -1
        else:
            assert got == int(ref)


# ---------------------------------------------------------------------------
# suite generation


def test_generate_suite_deterministic():
    spec = hp.SuiteSpec(families=("room",), robot_counts=(3,), scenarios_per_config=4,
                        map_variants=2, base_seed=9, map_params={"cells": 48})
    a = hp.generate_suite(spec)
    b = hp.generate_suite(spec)
    assert len(a) == 4
    for sa, sb in zip(a, b):
        assert hp.encode_scenario(sa) == hp.encode_scenario(sb)


def test_generate_suite_starts_reachable_and_separated():
    spec = hp.SuiteSpec(families=("shelf", "conveyor"), robot_counts=(3,), scenarios_per_config=6,
                        map_variants=2, base_seed=1, map_params={"cells": 64})
    for sc in hp.generate_suite(spec):
        starts = np.array([r.start for r in sc.robots])
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                assert np.linalg.norm(starts[i] - starts[j]) >= bench.START_SEPARATION
        for robot in sc.robots:
            cell = hp.world_to_cell(robot.start, sc.map)
            mask = bench.flood_fill(sc.map, cell)
            regions = hp.resolve_goal_regions(robot.instruction, sc.map)
            assert any(mask[r, c] for reg in regions for c, r in reg.cells)


def test_generate_suite_distinct_labels_per_robot():
    spec = hp.SuiteSpec(families=("drop_region",), robot_counts=(4,), scenarios_per_config=4,
                        map_variants=2, base_seed=3, map_params={"cells": 64})
    for sc in hp.generate_suite(spec):
        labels = [hp.resolve_goal_regions(r.instruction, sc.map)[0].label for r in sc.robots]
        assert len(set(labels)) == len(labels)


def test_generate_suite_ood_seals_one_of_two():
    spec = hp.SuiteSpec(families=("drop_region",), robot_counts=(1,), scenarios_per_config=4,
                        map_variants=2, base_seed=2, ood=True, map_params={"cells": 64})
    for sc in hp.generate_suite(spec):
        regions = hp.resolve_goal_regions(sc.robots[0].instruction, sc.map)
        assert len(regions) == 2
        mask = bench.flood_fill(sc.map, hp.world_to_cell(sc.robots[0].start, sc.map))
        reach = [all(mask[r, c] for c, r in reg.cells) for reg in regions]
        assert sorted(reach) == [False, True]


def test_suite_spec_validation():
    with pytest.raises(ParameterError):
        hp.SuiteSpec(families=("castle",))
    with pytest.raises(ParameterError):
        hp.SuiteSpec(robot_counts=())
    with pytest.raises(ParameterError):
        hp.SuiteSpec(scenarios_per_config=0)


@pytest.mark.parametrize("kwargs, field", [
    ({"families": "room"}, "families"),
    ({"families": ("room", "castle")}, "families[1]"),
    ({"robot_counts": ("a",)}, "robot_counts[0]"),
    ({"robot_counts": 3}, "robot_counts"),
    ({"robot_counts": (3, 2.5)}, "robot_counts[1]"),
    ({"map_variants": 1.5}, "map_variants"),
    ({"base_seed": 1.5}, "base_seed"),
    ({"base_seed": -1}, "base_seed"),
    ({"map_params": None}, "map_params"),
    ({"scenarios_per_config": 0}, "scenarios_per_config"),
    ({"map_params": {"seal_duplicate": True}}, "map_params"),  # ood=True is the only way to seal
    ({"map_params": {"n_labels": 4}}, "map_params"),  # always max(robot_counts)
    ({"robot_counts": (3, 13)}, "robot_counts[1]"),  # more robots than a map has labels
    ({"ood": "no"}, "ood"),  # built an OOD suite
    ({"ood": 1}, "ood"),
    ({"ood": None}, "ood"),
])
def test_suite_spec_names_the_field(kwargs, field):
    with pytest.raises(ParameterError) as ei:
        hp.SuiteSpec(**kwargs)
    assert ei.value.field == field and str(ei.value).startswith(f"{field} ")


def test_suite_spec_unknown_map_param_rejected_when_built():
    with pytest.raises(ParameterError, match="'min_aisle'"):
        hp.SuiteSpec(map_params={"min_aisle": 4})


# ---------------------------------------------------------------------------
# suite execution and reports


@pytest.fixture(scope="module")
def small_suite_report():
    spec = hp.SuiteSpec(families=("drop_region",), robot_counts=(2,), scenarios_per_config=4,
                        map_variants=2, base_seed=4, map_params={"cells": 64})
    scenarios = hp.generate_suite(spec)
    return hp.run_suite(scenarios, small_config())


def test_run_suite_aggregates(small_suite_report):
    rows = small_suite_report.rows
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "drop_region" and row["n"] == 2
    assert 0.0 <= row["success_rate"] <= 1.0
    assert row["scenarios"] == 4
    assert row["timeouts"] == 0


def test_report_soundness(small_suite_report):
    # success_rate equals recomputation from the raw records
    rows = bench.aggregate_records(small_suite_report.records)
    recs = small_suite_report.records
    expect = sum(1 for r in recs if r["success"]) / len(recs)
    assert rows[0]["success_rate"] == expect
    assert rows == small_suite_report.rows


def test_csv_header_order(small_suite_report):
    text = hp.write_report(small_suite_report, "csv")
    header = text.splitlines()[0]
    assert header == "family,n,success_rate,mean_time_s,median_time_s,mean_path_len,min_clearance,timeouts"


def test_json_report_roundtrip(small_suite_report):
    text = hp.write_report(small_suite_report, "json")
    rows = json.loads(text)["rows"]
    for got, row in zip(rows, small_suite_report.rows):
        for col in bench.REPORT_COLUMNS:
            assert got[col] == row[col]
    with pytest.raises(ParameterError):
        hp.write_report(small_suite_report, "yaml")


def test_records_jsonl(small_suite_report):
    text = hp.write_records(small_suite_report.records)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert {"family", "n", "map", "success", "planning_time_s", "path_lengths"} <= set(rec)
    no_t = json.loads(hp.write_records(small_suite_report.records, include_timing=False).strip().split("\n")[0])
    assert "planning_time_s" not in no_t


def test_worker_count_invariance():
    spec = hp.SuiteSpec(families=("room",), robot_counts=(2,), scenarios_per_config=4,
                        map_variants=2, base_seed=6, map_params={"cells": 48})
    scenarios = hp.generate_suite(spec)
    cfg = small_config()
    r1 = hp.run_suite(scenarios, cfg, workers=1)
    r8 = hp.run_suite(scenarios, cfg, workers=8)
    assert hp.write_report(r1, "csv", include_timing=False) == hp.write_report(r8, "csv", include_timing=False)
    assert hp.write_records(r1.records, include_timing=False) == hp.write_records(r8.records, include_timing=False)


def _interleaved_suite():
    # robot counts (1, 2) over 2 map variants list the maps A, B, A, B
    spec = hp.SuiteSpec(families=("room",), robot_counts=(1, 2), scenarios_per_config=2,
                        map_variants=2, base_seed=2, map_params={"cells": 32})
    scenarios = hp.generate_suite(spec)
    names = [sc.map.name for sc in scenarios]
    assert names[:2] == names[2:] and names[0] != names[1]
    return scenarios, PlannerConfig(T=4, K=2)


def test_run_suite_records_in_input_order():
    scenarios, cfg = _interleaved_suite()
    report = hp.run_suite(scenarios, cfg, workers=1, include_result_json=True)
    direct = [bench.run_one(sc, cfg, include_result_json=True) for sc in scenarios]
    assert hp.write_records(report.records, include_timing=False) == hp.write_records(direct, include_timing=False)
    assert [r["result_json"] for r in report.records] == [r["result_json"] for r in direct]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_suite_pool_no_larger_than_map_count(monkeypatch):
    scenarios, cfg = _interleaved_suite()
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    pooled = hp.run_suite(scenarios, cfg, workers=8)
    hp.run_suite(scenarios[:1], cfg, workers=8)  # one map: no pool
    assert _InlinePool.sizes == [2]
    serial = hp.run_suite(scenarios, cfg, workers=1)
    assert hp.write_records(pooled.records, include_timing=False) == hp.write_records(serial.records, include_timing=False)


def test_run_suite_one_goal_bfs_per_map_and_label(monkeypatch):
    spec = hp.SuiteSpec(families=("room", "drop_region"), robot_counts=(3,), scenarios_per_config=3,
                        map_variants=1, base_seed=4, map_params={"cells": 32})
    scenarios = hp.generate_suite(spec)
    calls = []

    def counted(free, seeds):
        calls.append(seeds)
        return board_hops(free, seeds)

    # run_one's detour base reaches the BFS through the cache it plans with
    board_hops = hf._board_hops
    monkeypatch.setattr(hf, "_board_hops", counted)
    hp.run_suite(scenarios, PlannerConfig(T=4, K=2), workers=1)
    pairs = {
        (sc.map.content_hash(), hp.resolve_goal_regions(r.instruction, sc.map)[0].label)
        for sc in scenarios for r in sc.robots
    }
    assert len(calls) == len(pairs) < sum(len(sc.robots) for sc in scenarios)


def test_already_solved_fixture_rate_one():
    # easy scenarios at full default sampling budget; the sampler forgets the
    # start by design, so a capable config is part of the fixture
    reg = hp.SemanticRegion("apple", ((31, 31), (32, 31), (31, 32), (32, 32)))
    m = hp.empty_map(cells=64, regions=[reg])
    scenarios = [
        hp.Scenario(m, (hp.RobotSpec("r0", "apple", (1.0, 1.0)),), seed=s) for s in range(3)
    ]
    report = hp.run_suite(scenarios, PlannerConfig())
    assert report.rows[0]["success_rate"] == 1.0


def test_run_suite_empty_rejected():
    with pytest.raises(ParameterError):
        hp.run_suite([], small_config())


@pytest.mark.parametrize("workers", ["2", 1.5, True, 0, None])
def test_run_suite_workers_must_be_a_positive_integer(workers):
    m = hp.empty_map(cells=16, regions=[hp.SemanticRegion("apple", ((8, 8),))])
    scenarios = [hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.1, 0.1)),), seed=1)]
    with pytest.raises(ParameterError) as ei:
        hp.run_suite(scenarios, small_config(), workers=workers)
    assert ei.value.field == "workers"


_ERROR_EXAMPLES = {
    errors.HeatplanError: ("plain",),
    errors.ParameterError: ("must be positive, got -1", "beta"),
    errors.GenerationError: ("no layout",),
    errors.MapFormatError: ("occupancy[3]", "row too short"),
}


def test_every_error_survives_pickling():
    # run_suite sends a worker's error back to the caller by pickle
    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert set(_ERROR_EXAMPLES) == subclasses(errors.HeatplanError)
    for cls, args in _ERROR_EXAMPLES.items():
        err = cls(*args)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls and str(back) == str(err)
        assert getattr(back, "field", None) == getattr(err, "field", None)


def test_worker_error_reaches_the_caller_as_itself():
    # two maps, so the suite runs on a pool; the second has two given
    # starts 0.05 apart, which plan rejects
    first = hp.empty_map(cells=16, regions=[hp.SemanticRegion("apple", ((8, 8),))])
    second = hp.WorldMap("other", first.occupancy, regions=first.regions)
    r0, r1 = hp.RobotSpec("r0", "apple", (0.5, 0.5)), hp.RobotSpec("r1", "apple", (0.55, 0.5))
    scenarios = [hp.Scenario(first, (r0,), seed=1), hp.Scenario(second, (r0, r1), seed=1)]
    with pytest.raises(ParameterError, match="'r0' and 'r1' start within d_safe"):
        hp.run_suite(scenarios, PlannerConfig(T=2, K=1), workers=2)
