import hashlib
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import heatplan as hp
from heatplan import heatfield as hf
from heatplan.errors import ParameterError
from heatplan.render import LAYERS, RenderSpec, _Canvas, render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def demo_scene():
    reg = hp.SemanticRegion("apple", ((40, 40), (41, 40), (40, 41), (41, 41)))
    m = hp.empty_map(cells=64, regions=[reg])
    sc = hp.Scenario(m, (hp.RobotSpec("r0", "apple", (0.2, 0.2)),), seed=1)
    res = hp.plan(sc, hp.PlannerConfig(T=6, K=4))
    return m, sc, res


def test_empty_map_occupancy_only():
    m = hp.empty_map(cells=32)
    svg = render_svg(m, RenderSpec(layers=("occupancy",)))
    root = ET.fromstring(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 1  # background only, no obstacle runs
    assert not root.findall(f".//{SVG_NS}polyline")


def test_identical_inputs_identical_bytes():
    m = hp.generate_map("room", 2, cells=48)
    spec = RenderSpec(layers=("occupancy", "regions"))
    assert render_svg(m, spec) == render_svg(m, spec)


def test_polyline_point_counts_match_waypoints():
    m, sc, res = demo_scene()
    spec = RenderSpec(layers=("occupancy", "trajectories", "starts"))
    svg = render_svg(m, spec, trajectories=res.trajectories)
    root = ET.fromstring(svg)
    polys = root.findall(f".//{SVG_NS}polyline")
    assert len(polys) == 1
    pts = polys[0].attrib["points"].split()
    assert len(pts) == len(res.trajectories[0].waypoints)
    assert len(root.findall(f".//{SVG_NS}circle")) == 1


def test_coordinate_fidelity_roundtrip():
    m, sc, res = demo_scene()
    spec = RenderSpec(layers=("trajectories",))
    svg = render_svg(m, spec, trajectories=res.trajectories)
    root = ET.fromstring(svg)
    pts = root.find(f".//{SVG_NS}polyline").attrib["points"].split()
    cv = _Canvas(m, spec)
    for token, wp in zip(pts, res.trajectories[0].waypoints):
        px, py = (float(v) for v in token.split(","))
        x, y = px / cv.sx, (cv.h - py) / cv.sy
        assert abs(x - wp[0]) <= 1e-6 and abs(y - wp[1]) <= 1e-6


def test_all_layers_render_wellformed():
    m, sc, res = demo_scene()
    sched = hp.build_schedule(6)
    label = m.labels()[0]
    states = hf.solve_to_times(m.regions_with_label(label), m, sched)
    field = hf.build_score_field(states[-1], t=6)
    spec = RenderSpec(layers=("occupancy", "heat", "regions", "field_arrows", "trajectories", "starts", "goals"))
    svg = render_svg(m, spec, heat=states[-1], score_field=field, trajectories=res.trajectories, scenario=sc)
    root = ET.fromstring(svg)  # parses => well-formed XML
    assert root.tag == f"{SVG_NS}svg"
    assert root.attrib["version"] == "1.1"


def test_missing_layer_data_named():
    m = hp.empty_map(cells=16)
    with pytest.raises(ParameterError) as ei:
        render_svg(m, RenderSpec(layers=("heat",)))
    assert ei.value.field == "heat"
    with pytest.raises(ParameterError) as ei:
        render_svg(m, RenderSpec(layers=("trajectories",)))
    assert ei.value.field == "trajectories"
    with pytest.raises(ParameterError) as ei:
        RenderSpec(layers=("occupancy", "volumetric"))
    assert ei.value.field == "layers[1]"


@pytest.mark.parametrize("u", [np.zeros((8, 8)), np.full((8, 8), np.nan), np.where(np.eye(8) > 0, np.inf, 0.0)])
def test_heat_without_finite_mass_named(u):
    m = hp.empty_map(cells=8)
    with pytest.raises(ParameterError) as ei:
        render_svg(m, RenderSpec(layers=("heat",)), heat=hf.HeatState(u=u, time=0.0, map=m))
    assert ei.value.field == "heat"


def test_heat_with_a_cell_below_zero_named():
    """A cell at -5.0 drew a layer, with a RuntimeWarning from the power of
    a negative ratio; the heat state now breaks ``_state_peak``'s rule."""
    m = hp.empty_map(cells=8)
    u = np.full((8, 8), 1 / 63)
    u[3, 4] = -5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as ei:
            render_svg(m, RenderSpec(layers=("heat",)), heat=hf.HeatState(u=u, time=0.0, map=m))
    assert ei.value.field == "heat" and "below 0" in str(ei.value)


@pytest.mark.parametrize("cells, other", [(32, 16), (16, 32)])
def test_inputs_from_another_grid_named(cells, other):
    # a smaller heat grid used to fill a corner of the canvas, a larger one
    # to draw off it, and smaller arrows to raise a raw IndexError
    m, elsewhere = hp.empty_map(cells=cells), hp.empty_map(cells=other)
    heat = hf.HeatState(u=np.full((other, other), 1 / other**2), time=0.0, map=elsewhere)
    field = hf.ScoreField(t=1, vectors=np.ones((other, other, 2)), map=elsewhere)
    for layer, kwargs in (("heat", {"heat": heat}), ("field_arrows", {"score_field": field})):
        with pytest.raises(ParameterError) as ei:
            render_svg(m, RenderSpec(layers=("occupancy", layer), stride=1), **kwargs)
        assert ei.value.field == next(iter(kwargs)) and f"({other}, {other}" in str(ei.value)


@pytest.mark.parametrize("kwargs, field", [
    ({"stride": "2"}, "stride"),
    ({"stride": 1.5}, "stride"),
    ({"stride": 0}, "stride"),
    ({"stride": True}, "stride"),
    ({"canvas": (5,)}, "canvas"),
    ({"canvas": (640, 0)}, "canvas"),
    ({"canvas": (640.0, 640)}, "canvas"),
    ({"canvas": 640}, "canvas"),
    ({"layers": 5}, "layers"),
    ({"layers": "occupancy"}, "layers"),
])
def test_render_spec_numbers_are_checked_by_name(kwargs, field):
    with pytest.raises(ParameterError) as ei:
        RenderSpec(**{"layers": ("field_arrows",), **kwargs})
    assert ei.value.field == field and str(ei.value).startswith(f"{field} ")


def test_arrow_stride_subsamples():
    m = hp.empty_map(cells=64)
    reg = hp.SemanticRegion("apple", ((32, 32),))
    states = hf.solve_to_times([reg], hp.empty_map(cells=64), hp.build_schedule(3))
    field = hf.build_score_field(states[-1], t=3)
    svg2 = render_svg(m, RenderSpec(layers=("field_arrows",), stride=2), score_field=field)
    svg8 = render_svg(m, RenderSpec(layers=("field_arrows",), stride=8), score_field=field)
    n2 = len(ET.fromstring(svg2).findall(f".//{SVG_NS}line"))
    n8 = len(ET.fromstring(svg8).findall(f".//{SVG_NS}line"))
    assert n2 > n8 > 0


def test_figure_name_convention():
    from heatplan.render import figure_name

    assert figure_name("room-7-s3", ("occupancy", "trajectories")) == "room-7-s3.occupancy-trajectories.svg"


def test_rendered_figures_keep_their_bytes():
    """The sha256 of every figure of one planned 48-cell scenario per family,
    three robots on a map with a sealed duplicate label: all seven layers
    in two orders, and occupancy with regions alone, each at two
    stride/canvas pairs."""
    orders = (LAYERS, LAYERS[::-1], ("occupancy", "regions"))
    looks = ((4, (640, 640)), (3, (500, 320)))
    digest = hashlib.sha256()
    for family in hp.FAMILIES:
        suite = hp.SuiteSpec(families=(family,), robot_counts=(3,), scenarios_per_config=1, map_variants=1,
                             ood=True, map_params={"cells": 48})
        (sc,) = hp.generate_suite(suite)
        res = hp.plan(sc, hp.PlannerConfig(T=6, K=4))
        regions = hp.resolve_goal_regions(sc.robots[0].instruction, sc.map)
        states = hf.solve_to_times(regions, sc.map, hp.build_schedule(6))
        field = hf.build_score_field(states[2], t=2)
        for layers in orders:
            for stride, canvas in looks:
                svg = render_svg(sc.map, RenderSpec(layers=layers, stride=stride, canvas=canvas), heat=states[2],
                                 score_field=field, trajectories=res.trajectories, scenario=sc)
                digest.update(svg.encode("utf-8"))
    assert digest.hexdigest() == "44ad276c315d4b0353817bd0cfd6a805d223f7968cbc0caf47fb6e8e43614010"
