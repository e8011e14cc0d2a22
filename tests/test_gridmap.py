import copy
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatplan as hp
from heatplan import gridmap
from heatplan.errors import (
    GenerationError,
    HeatplanError,
    MapFormatError,
    ParameterError,
)
import oracles


def test_world_to_cell_origin_and_midpoint():
    m = hp.empty_map(cells=128)
    assert hp.world_to_cell((0.0, 0.0), m) == (0, 0)
    assert hp.world_to_cell((1.0, 1.0), m) == (64, 64)


def test_world_to_cell_out_of_domain():
    m = hp.empty_map(cells=16)
    for p in ((-0.01, 0.5), (2.0, 0.5), (0.5, 2.0), (0.5, -1e-9)):
        with pytest.raises(ParameterError) as ei:
            hp.world_to_cell(p, m)
        assert ei.value.field == "p"


def test_cell_center_roundtrip_within_half_cell():
    m = hp.empty_map(cells=128)
    rng = np.random.default_rng(0)
    half = np.hypot(m.cell_size[0] / 2, m.cell_size[1] / 2)
    for _ in range(1000):
        p = rng.random(2) * 2.0
        c = hp.world_to_cell(p, m)
        center = np.array(hp.cell_center(c, m))
        assert np.linalg.norm(center - p) <= half + 1e-12


def test_is_free_matches_direct_lookup():
    m = hp.generate_map("drop_region", 11, cells=64)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.random(2) * 2.0
        col, row = hp.world_to_cell(p, m)
        assert hp.is_free(p, m) == (not m.occupancy[row, col])


def test_is_free_outside_domain_is_false():
    m = hp.empty_map(cells=16)
    assert not hp.is_free((2.5, 0.5), m)
    assert not hp.is_free((-0.1, 0.5), m)


def test_is_free_inside_obstacle_false_and_empty_map_true():
    occ = np.zeros((32, 32), dtype=bool)
    occ[10:20, 10:20] = True
    m = hp.WorldMap("blk", occ)
    assert not hp.is_free((0.95, 0.95), m)  # inside the block
    assert hp.is_free((0.1, 0.1), hp.empty_map(cells=32))


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("family", gridmap.FAMILIES)
def test_generate_deterministic(family):
    a = hp.generate_map(family, 7, cells=64)
    b = hp.generate_map(family, 7, cells=64)
    assert hp.encode_map(a) == hp.encode_map(b)


@pytest.mark.parametrize("family", gridmap.FAMILIES)
@pytest.mark.parametrize("seed", range(20))
def test_generated_regions_free_and_in_bounds(family, seed):
    m = hp.generate_map(family, seed, cells=64)
    for reg in m.regions:
        for col, row in reg.cells:
            assert 0 <= col < m.width_cells and 0 <= row < m.height_cells
            assert not m.occupancy[row, col]


def test_drop_region_fill_within_params_range(subtests=None):
    for seed in range(10):
        m = hp.generate_map("drop_region", seed, cells=64)
        frac = m.occupancy.mean()
        assert gridmap.FILL_RANGE[0] <= frac <= gridmap.FILL_RANGE[1]


def test_shelf_aisles_at_least_min_aisle():
    for seed in range(10):
        m = hp.generate_map("shelf", seed, cells=64)
        occ = m.occupancy
        # every maximal free run in each column (between obstacles/borders)
        for col in range(1, m.width_cells - 1):
            column = occ[1:-1, col]
            run = 0
            for v in column:
                if v:
                    if run:
                        assert run >= gridmap.MIN_AISLE
                    run = 0
                else:
                    run += 1
            if run:
                assert run >= gridmap.MIN_AISLE


def test_conveyor_has_gaps_through_every_belt():
    # all free cells reachable from any free cell => gaps exist
    from heatplan.bench import flood_fill

    for seed in range(5):
        m = hp.generate_map("conveyor", seed, cells=64)
        seed_cell = m.regions[0].cells[0]
        mask = flood_fill(m, seed_cell)
        # the main component holds the overwhelming share of free space
        assert mask.sum() >= 0.95 * m.free.sum()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.sampled_from((0.3, 0.45, 0.6)), st.integers(0, 2**32 - 1))
def test_largest_component_matches_the_oracle(h, w, density, seed):
    occ = np.random.default_rng(seed).random((h, w)) < density
    if occ.all():
        occ[h // 2, w // 2] = False
    got = gridmap._largest_component(occ)
    want = oracles.largest_component(occ)
    assert got.dtype == bool and got.shape == occ.shape
    assert np.array_equal(got, want)


def test_largest_component_tie_goes_to_the_lowest_row_major_cell():
    occ = np.zeros((5, 9), dtype=bool)
    occ[:, 4] = True                  # a wall between columns 0-3 and 5-8
    occ[0, 1] = occ[1, 0] = True      # cell (0, 0) becomes a one-cell pocket
    occ[4, 6:] = True                 # left and right hold 17 cells each
    left = np.zeros_like(occ)
    left[:, :4] = ~occ[:, :4]
    left[0, 0] = False
    got = gridmap._largest_component(occ)
    assert got.dtype == bool and np.array_equal(got, left)
    occ[0, 3] = True                  # left now 16: the right side wins
    got = gridmap._largest_component(occ)
    assert got.sum() == 17 and got[:, 5:].sum() == 17
    assert np.array_equal(got, oracles.largest_component(occ))


def test_generate_unknown_family_rejected():
    with pytest.raises(ParameterError):
        hp.generate_map("maze", 0)


@pytest.mark.parametrize("kwargs, name", [
    ({"cells": 16.5}, "cells"),
    ({"cells": "64"}, "cells"),
    ({"n_labels": 2.5}, "n_labels"),
    ({"seed": "abc"}, "seed"),
    ({"seed": None}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
])
def test_generate_non_integer_size_rejected_by_name(kwargs, name):
    kwargs = {"seed": 1, **kwargs}
    with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
        hp.generate_map("room", **kwargs)


def test_generate_negative_seed_rejected_by_name():
    with pytest.raises(ParameterError, match="^seed must be >= 0"):
        hp.generate_map("room", -1)
    assert hp.generate_map("room", np.int64(1), cells=16).name == "room-1"


@pytest.mark.parametrize("family, seed, cells", [
    ("shelf", 1, 32),
    ("shelf", 4, 35),
    ("drop_region", 1, 22),
    ("conveyor", 1, 16),
])
def test_generate_too_small_for_the_layout_names_cells(family, seed, cells):
    with pytest.raises(GenerationError, match=f"^cells={cells} "):
        hp.generate_map(family, seed, cells=cells)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(gridmap.FAMILIES), st.integers(0, 2**32 - 1), st.integers(16, 48), st.booleans())
def test_generate_small_maps_succeed_or_raise_typed(family, seed, cells, seal):
    try:
        m = hp.generate_map(family, seed, cells=cells, seal_duplicate=seal)
    except HeatplanError:
        return
    assert m.occupancy.shape == (cells, cells)


def test_generated_maps_keep_their_bytes():
    """The sha256 of the content hashes of every family's maps at 32, 64 and
    128 cells, seeds 0-3, with and without the sealed duplicate; a layout
    that does not fit is pinned by its GenerationError text."""
    digest = hashlib.sha256()
    for family in gridmap.FAMILIES:
        for cells in (32, 64, 128):
            for seed in range(4):
                for seal in (False, True):
                    try:
                        text = hp.generate_map(family, seed, cells=cells, seal_duplicate=seal).content_hash()
                    except GenerationError as e:
                        text = f"GenerationError: {e}"
                    digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "3e382c7cefb3bbd933f320edc2aca1380abf726ed6dc2c8ddeb06354242227e1"


@pytest.mark.parametrize("seed", [1.5, True, "abc", None])
def test_scenario_seed_must_be_an_unsigned_integer(seed):
    with pytest.raises(ParameterError, match="^seed must be an unsigned integer"):
        hp.Scenario(_map_with_labels(), (gridmap.RobotSpec("r0", "apple", None),), seed=seed)


@pytest.mark.parametrize(
    "robots, field",
    [
        pytest.param((), "robots", id="no-robots"),
        pytest.param((gridmap.RobotSpec(1, "apple", None),), "robots[0].id", id="int-id"),
        pytest.param((gridmap.RobotSpec("r0", 5, None),), "robots[0].instruction", id="int-instruction"),
        pytest.param((gridmap.RobotSpec("r0", "apple", (0.5, 0.5, 0.5)),), "robots[0].start", id="3d-start"),
        pytest.param((gridmap.RobotSpec("r0", "apple", "ab"),), "robots[0].start", id="str-start"),
        pytest.param(
            (gridmap.RobotSpec("r0", "apple", None), gridmap.RobotSpec("r1", "apple", 5)),
            "robots[1].start",
            id="scalar-start",
        ),
    ],
)
def test_scenario_rejects_malformed_robots_by_name(robots, field):
    with pytest.raises(ParameterError, match=f"^{re.escape(field)} "):
        hp.Scenario(_map_with_labels(), robots, seed=1)


def test_ood_map_seals_exactly_one_duplicate():
    from heatplan.bench import flood_fill

    m = hp.generate_map("drop_region", 3, cells=64, seal_duplicate=True)
    dup = m.regions[0].label
    instances = m.regions_with_label(dup)
    assert len(instances) == 2
    mask = flood_fill(m, instances[0].cells[0])
    reach = [all(mask[r, c] for c, r in reg.cells) for reg in instances]
    assert reach.count(True) == 1 and reach.count(False) == 1


# ---------------------------------------------------------------------------
# instruction resolution


def _map_with_labels():
    regs = [
        gridmap.SemanticRegion("apple", ((2, 2), (3, 2))),
        gridmap.SemanticRegion("basketball", ((10, 10),)),
        gridmap.SemanticRegion("apple", ((20, 20),)),
    ]
    return hp.empty_map(cells=32, regions=regs)


def test_resolve_template_and_case():
    m = _map_with_labels()
    got = hp.resolve_goal_regions("Move to the Apple", m)
    assert [r.label for r in got] == ["apple", "apple"]


def test_resolve_bare_label_multi_instance():
    m = _map_with_labels()
    assert len(hp.resolve_goal_regions("apple", m)) == 2
    assert len(hp.resolve_goal_regions("basketball", m)) == 1


def test_resolve_unknown_label_lists_available():
    m = _map_with_labels()
    with pytest.raises(ParameterError) as ei:
        hp.resolve_goal_regions("move to the pear", m)
    assert ei.value.field == "instruction"
    assert "apple" in str(ei.value) and "basketball" in str(ei.value)


# ---------------------------------------------------------------------------
# codecs


@pytest.mark.parametrize("family", gridmap.FAMILIES)
@pytest.mark.parametrize("seed", range(5))
def test_map_codec_roundtrip(family, seed):
    m = hp.generate_map(family, seed, cells=64)
    doc = hp.encode_map(m)
    m2 = hp.decode_map(doc)
    assert hp.encode_map(m2) == doc
    assert np.array_equal(m.occupancy, m2.occupancy)
    assert m.regions == m2.regions


def test_map_codec_wrong_row_length():
    m = hp.empty_map(cells=8)
    doc = json.loads(hp.encode_map(m))
    doc["occupancy"][3] = "000"
    with pytest.raises(MapFormatError) as ei:
        hp.decode_map(json.dumps(doc))
    assert "occupancy[3]" in str(ei.value)


def test_map_codec_declared_size_checked_against_rows():
    # a width numpy cannot allocate must fail on the rows, not in numpy
    doc = {"version": 1, "name": "x", "width_cells": 2**70, "height_cells": 1,
           "world_size": [2.0, 2.0], "occupancy": ["0"], "regions": []}
    with pytest.raises(MapFormatError) as ei:
        hp.decode_map(doc)
    assert ei.value.field == "occupancy[0]"


def test_map_codec_bad_version():
    m = hp.empty_map(cells=8)
    doc = json.loads(hp.encode_map(m))
    doc["version"] = 2
    with pytest.raises(MapFormatError) as ei:
        hp.decode_map(json.dumps(doc))
    assert "version" in str(ei.value)


def test_map_codec_unknown_field_rejected():
    m = hp.empty_map(cells=8)
    doc = json.loads(hp.encode_map(m))
    doc["colour"] = "red"
    with pytest.raises(MapFormatError) as ei:
        hp.decode_map(json.dumps(doc))
    assert "colour" in str(ei.value)


def test_map_codec_region_on_obstacle():
    occ = np.zeros((8, 8), dtype=bool)
    occ[4, 4] = True
    m = hp.WorldMap("x", occ)
    doc = json.loads(hp.encode_map(m))
    doc["regions"] = [{"label": "apple", "cells": [[4, 4]]}]
    with pytest.raises(MapFormatError) as ei:
        hp.decode_map(json.dumps(doc))
    assert "regions[0].cells[0]" in str(ei.value)


def test_scenario_codec_roundtrip_inline(tmp_path):
    m = _map_with_labels()
    sc = hp.Scenario(
        m,
        (
            gridmap.RobotSpec("r0", "move to the apple", (0.5, 0.5)),
            gridmap.RobotSpec("r1", "basketball", None),
        ),
        seed=5,
        config={"beta": 1.5},
    )
    doc = hp.encode_scenario(sc)
    sc2 = hp.decode_scenario(doc)
    assert hp.encode_scenario(sc2) == doc
    assert sc2.robots == sc.robots
    assert sc2.config == {"beta": 1.5}


def test_scenario_codec_map_path(tmp_path):
    m = _map_with_labels()
    hp.save_map(m, tmp_path / "m.json")
    sc = hp.Scenario(m, (gridmap.RobotSpec("r0", "apple", None),), seed=1)
    hp.save_scenario(sc, tmp_path / "s.json", map_path="m.json")
    sc2 = hp.load_scenario(tmp_path / "s.json")
    assert sc2.map.name == m.name
    assert sc2.robots[0].instruction == "apple"


@pytest.mark.parametrize("map_path", ["", ".", "sub", pytest.param("m" * 300, id="300-characters")])
def test_scenario_codec_map_path_not_a_file(tmp_path, map_path):
    (tmp_path / "sub").mkdir()
    sc = hp.Scenario(_map_with_labels(), (gridmap.RobotSpec("r0", "apple", None),), seed=1)
    doc = hp.encode_scenario(sc, map_path=map_path)
    with pytest.raises(MapFormatError) as ei:
        hp.decode_scenario(doc, base_dir=tmp_path)
    assert ei.value.field == "map"


def test_scenario_codec_bad_start_named():
    m = _map_with_labels()
    doc = json.loads(hp.encode_scenario(hp.Scenario(m, (gridmap.RobotSpec("r0", "apple", None),), 0)))
    doc["robots"][0]["start"] = [5.0, 5.0]
    with pytest.raises(MapFormatError) as ei:
        hp.decode_scenario(json.dumps(doc))
    assert "robots[0].start" in str(ei.value)


def test_scenario_codec_unknown_label_named():
    m = _map_with_labels()
    doc = json.loads(hp.encode_scenario(hp.Scenario(m, (gridmap.RobotSpec("r0", "apple", None),), 0)))
    doc["robots"][0]["instruction"] = "move to the pear"
    with pytest.raises(MapFormatError) as ei:
        hp.decode_scenario(json.dumps(doc))
    assert "robots[0].instruction" in str(ei.value)


@pytest.mark.parametrize("world_width, start, config, field", [
    (5e-324, [0, 0.5], {}, "map.world_size"),      # cells of zero width
    (10**400, [0.5, 0.5], {}, "map.world_size"),   # too large for a float
    (2.0, [10**400, 0.5], {}, "robots[0].start"),
    (2.0, [0.5, 0.5], {"beta": float("nan")}, "config.beta"),
    (2.0, [0.5, 0.5], {"K": True, "T": 3}, "config.K"),        # a boolean is not a number
    (2.0, [0.5, 0.5], {"beta": False}, "config.beta"),
    ("2", [0.5, 0.5], {}, "map.world_size"),       # not a number
])
def test_scenario_codec_degenerate_numbers_named(world_width, start, config, field):
    m = _map_with_labels()
    doc = json.loads(hp.encode_scenario(hp.Scenario(m, (gridmap.RobotSpec("r0", "apple", None),), 0)))
    doc["map"]["world_size"][0] = world_width
    doc["robots"][0]["start"] = start
    doc["config"] = config
    with pytest.raises(MapFormatError) as ei:
        hp.decode_scenario(doc)
    assert ei.value.field == field


# ---------------------------------------------------------------------------
# decoder fuzz: a mutated document either decodes or raises a HeatplanError

# half of the drawn values come from this list of edge cases
_VALUES = st.sampled_from([None, True, -1, 0, 2**70, 10**400, 5e-324, float("inf"), float("nan"), "", ".", [], {}]) | (
    st.integers() | st.floats() | st.text("01a. /", max_size=4) | st.lists(st.integers(-1, 40), max_size=2))


def _field_paths(node, prefix=()):
    """Every field of a document, following only the first item of a list."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _field_paths(child, prefix + (key,))
    elif isinstance(node, list) and node:
        yield from _field_paths(node[0], prefix + (0,))


def _fuzz_scenario_doc():
    m = _map_with_labels()
    robots = (gridmap.RobotSpec("r0", "apple", (0.5, 0.5)), gridmap.RobotSpec("r1", "move to the basketball"))
    return json.loads(hp.encode_scenario(hp.Scenario(m, robots, 3, {"beta": 1.5})))


@pytest.mark.parametrize("decoder", ["map", "scenario"])
@settings(deadline=None, max_examples=500)
@given(data=st.data())
def test_decoders_raise_only_heatplan_errors(decoder, data):
    doc = _fuzz_scenario_doc()
    if decoder == "map":
        doc = doc["map"]
    paths = list(_field_paths(doc))[1:]
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if data.draw(st.booleans()):
                node[path[-1]] = copy.deepcopy(data.draw(_VALUES))  # _VALUES shares its [] and {}
            else:
                del node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped this field's parent
    decode = hp.decode_map if decoder == "map" else hp.decode_scenario
    for form in (doc, json.dumps(doc)):
        try:
            decode(form)
        except HeatplanError:
            pass


def test_scenario_duplicate_robot_ids_rejected():
    m = _map_with_labels()
    with pytest.raises(ParameterError):
        hp.Scenario(m, (gridmap.RobotSpec("r0", "apple", None), gridmap.RobotSpec("r0", "apple", None)), 0)


def test_scenario_coincident_starts_rejected():
    m = _map_with_labels()
    robots = (
        gridmap.RobotSpec("r0", "apple", (0.5, 0.5)),
        gridmap.RobotSpec("r1", "basketball", (0.7, 0.5)),
        gridmap.RobotSpec("r2", "basketball", [0.5, 0.5]),
    )
    with pytest.raises(ParameterError, match="'r0' and 'r2'"):
        hp.Scenario(m, robots, 0)
    doc = json.loads(hp.encode_scenario(hp.Scenario(m, robots[:2], 0)))
    doc["robots"][1]["start"] = [0.5, 0.5]
    with pytest.raises(MapFormatError, match="'r0' and 'r1'"):
        hp.decode_scenario(json.dumps(doc))


def test_worldmap_invariants():
    with pytest.raises(ParameterError):
        hp.WorldMap("full", np.ones((4, 4), dtype=bool))  # no free cell
    with pytest.raises(ParameterError):
        gridmap.SemanticRegion("apple", ())  # empty region
    with pytest.raises(ParameterError):
        gridmap.SemanticRegion("apple", ((0, 0), (2, 2)))  # not 4-connected


def test_worldmap_leaves_the_callers_array_writable():
    occ = np.zeros((4, 4), dtype=bool)
    m = hp.WorldMap("x", occ)
    occ[0, 0] = True  # read-only if the map froze the caller's array
    assert not m.occupancy[0, 0] and not m.occupancy.flags.writeable
    assert m.content_hash() == hp.WorldMap("x", np.zeros((4, 4), dtype=bool)).content_hash()


# ---------------------------------------------------------------------------
# constructors own the value rules; the decoders name the same fields


def _region(cells, label="apple"):
    return gridmap.SemanticRegion(label, cells)


def _scenario(**kwargs):
    kwargs = {"map": _map_with_labels(), "robots": (gridmap.RobotSpec("r0", "apple", None),), **kwargs}
    return hp.Scenario(**kwargs)


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: _region(((1.5, 2),)), "cells[0]", id="float-cell"),
    pytest.param(lambda: _region(((True, 2),)), "cells[0]", id="bool-cell"),
    pytest.param(lambda: _region((("1", 2),)), "cells[0]", id="str-cell"),
    pytest.param(lambda: _region(((1, 2, 3),)), "cells[0]", id="3-cell"),
    pytest.param(lambda: _region(None), "cells", id="no-cells"),
    pytest.param(lambda: _region(((1, 1),), label=5), "label", id="int-label"),
    pytest.param(lambda: _region(((1, 1),), label="apple\n"), "label", id="newline-label"),
    pytest.param(lambda: hp.empty_map(cells=8, regions=[_region(((2**70, 0),))]), "regions[0].cells[0]",
                 id="huge-cell"),
    pytest.param(lambda: hp.WorldMap("m", np.zeros((4, 4)), (float("nan"), 2)), "world_size", id="nan-world"),
    pytest.param(lambda: hp.WorldMap("m", np.zeros((4, 4)), (float("inf"), 2)), "world_size", id="inf-world"),
    pytest.param(lambda: hp.WorldMap("m", np.zeros((4, 4)), ("a", 2)), "world_size", id="str-world"),
    pytest.param(lambda: hp.WorldMap("m", np.zeros((4, 4)), regions=[5]), "regions[0]", id="int-region"),
    pytest.param(lambda: _scenario(map=None), "map", id="no-map"),
    pytest.param(lambda: _scenario(config=[1]), "config", id="list-config"),
    pytest.param(lambda: _scenario(config={1: 2}), "config", id="int-key-config"),
    pytest.param(lambda: _scenario(config={"beta": float("nan")}), "config.beta", id="nan-config"),
])
def test_constructors_name_the_field(build, field):
    with pytest.raises(ParameterError) as ei:
        build()
    assert ei.value.field == field
    assert str(ei.value).startswith(f"{field} ")


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda m: hp.world_to_cell([1.0], m), "p", id="short-point"),
    pytest.param(lambda m: hp.world_to_cell("ab", m), "p", id="str-point"),
    pytest.param(lambda m: hp.world_to_cell(None, m), "p", id="no-point"),
    pytest.param(lambda m: hp.world_to_cell((float("nan"), 0.5), m), "p", id="nan-point"),
    pytest.param(lambda m: hp.is_free([1.0], m), "p", id="is-free-short-point"),
    pytest.param(lambda m: hp.cell_center((1,), m), "cell", id="short-cell"),
    pytest.param(lambda m: hp.cell_center(("a", "b"), m), "cell", id="str-cell"),
    pytest.param(lambda m: hp.cell_center((8, 0), m), "cell", id="off-grid-cell"),
    pytest.param(lambda m: hp.cell_center((3, 3), hp.WorldMap("o", np.eye(8, dtype=bool))), "cell",
                 id="obstacle-cell"),
    pytest.param(lambda m: hp.resolve_goal_regions(5, m), "instruction", id="int-instruction"),
    pytest.param(lambda m: hp.empty_map(cells=2.5), "cells", id="float-cells"),
    pytest.param(lambda m: hp.empty_map(cells=-1), "cells", id="negative-cells"),
])
def test_point_and_cell_helpers_name_the_field(call, field):
    """Each of these raised a raw IndexError, ValueError, TypeError or
    AttributeError; cell_center takes a cell by the one cell rule."""
    with pytest.raises(ParameterError) as ei:
        call(hp.empty_map(cells=8))
    assert ei.value.field == field


def test_scenario_keeps_starts_as_float_pairs_and_names_unknown_labels():
    sc = _scenario(robots=[gridmap.RobotSpec("r0", "apple", np.array([1, 0.5]))])
    assert sc.robots == (gridmap.RobotSpec("r0", "apple", (1.0, 0.5)),)
    assert all(type(v) is float for v in sc.robots[0].start)
    with pytest.raises(ParameterError) as ei:
        _scenario(robots=(gridmap.RobotSpec("r0", "move to the pear", None),))
    assert ei.value.field == "robots[0].instruction" and "'pear'" in str(ei.value)


@pytest.mark.parametrize("path, value, field", [
    (("map", "regions", 0, "cells", 0), [1.5, 2], "regions[0].cells[0]"),
    (("map", "regions", 0, "label"), "Apple", "regions[0].label"),
    (("map", "name"), 5, "name"),
    (("robots", 1, "id"), "r0", "robots[1].id"),
    (("robots", 1, "start"), [0.5, 0.5], "robots[1].start"),
    (("seed",), -1, "seed"),
    (("robots",), [], "robots"),
    (("config",), [], "config"),
])
def test_decoders_name_the_constructor_field(path, value, field):
    """``field`` is the path within the document that ``path`` starts in: an
    inline map's fields are named by ``decode_map`` as they are, and by
    ``decode_scenario`` under ``map.``."""
    doc = _fuzz_scenario_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    if path[0] == "map":
        with pytest.raises(MapFormatError) as ei:
            hp.decode_map(json.dumps(doc["map"]))
        assert ei.value.field == field
        field = f"map.{field}"
    with pytest.raises(MapFormatError) as ei:
        hp.decode_scenario(json.dumps(doc))
    assert ei.value.field == field
