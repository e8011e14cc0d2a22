import json
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heatplan as hp
from heatplan import bench
from heatplan import errors
from heatplan import heatfield as hf
from heatplan.errors import GenerationError, ParameterError
from heatplan.gridmap import hop_distances
from heatplan.planner import PlannerConfig


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


def _reference_bfs(occ, seeds):
    """Independent deque BFS used as the second-implementation oracle: hop
    distance from the nearest of the free ``seeds`` cells, -1 where unreached."""
    h, w = occ.shape
    dist = np.full(occ.shape, -1, dtype=np.int64)
    q = deque()
    for c, r in seeds:
        if dist[r, c] < 0:
            dist[r, c] = 0
            q.append((c, r))
    while q:
        c, r = q.popleft()
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nc, nr = c + dc, r + dr
            if 0 <= nc < w and 0 <= nr < h and not occ[nr, nc] and dist[nr, nc] < 0:
                dist[nr, nc] = dist[r, c] + 1
                q.append((nc, nr))
    return dist


@pytest.mark.parametrize("seed", range(20))
def test_flood_fill_matches_reference_bfs(seed):
    fam = hp.FAMILIES[seed % 4]
    m = hp.generate_map(fam, seed, cells=48)
    cell = m.regions[0].cells[0]
    assert np.array_equal(bench.flood_fill(m, cell), _reference_bfs(m.occupancy, [cell]) >= 0)


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


@settings(deadline=None)
@given(_grid_and_seeds())
def test_hop_distances_match_reference_bfs(case):
    occ, seeds = case
    free = ~occ
    single = hop_distances(free, seeds[:1])
    assert np.array_equal(single, _reference_bfs(occ, seeds[:1]))
    assert np.array_equal(hop_distances(free, seeds), _reference_bfs(occ, seeds))
    m = hp.WorldMap("g", occ)
    assert np.array_equal(bench.flood_fill(m, seeds[0]), single >= 0)
    (ac, ar), (bc, br) = seeds[0], seeds[-1]
    assert single[br, bc] == hop_distances(free, seeds[-1:])[ar, ac]


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

    def counted(free, seed_cells):
        calls.append(len(seed_cells))
        return hop_distances(free, seed_cells)

    # run_one's detour base reaches the BFS through the cache it plans with
    monkeypatch.setattr(bench, "hop_distances", counted)
    monkeypatch.setattr(hf, "hop_distances", counted)
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


_ERROR_EXAMPLES = {
    errors.HeatplanError: ("plain",),
    errors.ParameterError: ("must be positive, got -1", "beta"),
    errors.DomainError: ("outside the world",),
    errors.GenerationError: ("no layout",),
    errors.MapFormatError: ("occupancy[3]", "row too short"),
    errors.UnknownLabelError: ("kiwi", ["apple", "cone"]),
    errors.PlacementError: ("on an obstacle",),
    errors.DegenerateFieldError: ("no mass",),
    errors.SingularConfigurationError: ("coincident",),
    errors.RenderError: ("heat", "no field"),
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
        for name in ("field", "layer", "token", "available"):
            assert getattr(back, name, None) == getattr(err, name, None)


def test_worker_error_reaches_the_caller_as_itself():
    # two maps, so the suite runs on a pool; the second has two given
    # starts 0.05 apart, which plan rejects
    first = hp.empty_map(cells=16, regions=[hp.SemanticRegion("apple", ((8, 8),))])
    second = hp.WorldMap("other", first.occupancy, regions=first.regions)
    r0, r1 = hp.RobotSpec("r0", "apple", (0.5, 0.5)), hp.RobotSpec("r1", "apple", (0.55, 0.5))
    scenarios = [hp.Scenario(first, (r0,), seed=1), hp.Scenario(second, (r0, r1), seed=1)]
    with pytest.raises(ParameterError, match="'r0' and 'r1' start within d_safe"):
        hp.run_suite(scenarios, PlannerConfig(T=2, K=1), workers=2)
