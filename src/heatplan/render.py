"""Static SVG figures: occupancy, regions, heat, score arrows, trajectories.

Pure function of its inputs; identical calls emit byte-identical documents.
World coordinates map linearly onto the canvas with y flipped (SVG y grows
downward).  Numbers are written with four decimals, so a canvas of a few
hundred pixels round-trips waypoints well under 1e-6 units.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .errors import ParameterError
from .gridmap import WorldMap, _int_pair, _is_int, resolve_goal_regions

LAYERS = ("occupancy", "regions", "heat", "field_arrows", "trajectories", "starts", "goals")
# the render_svg argument each layer draws from, for the layers that need one
_INPUT_OF = {"heat": "heat", "field_arrows": "score_field", "trajectories": "trajectories",
             "starts": "trajectories", "goals": "scenario"}

# fixed cycle, one color per robot up to the largest tested team
ROBOT_COLORS = (
    "#e6194b",
    "#3cb44b",
    "#4363d8",
    "#f58231",
    "#911eb4",
    "#46f0f0",
    "#f032e6",
    "#bcf60c",
    "#008080",
)

OBSTACLE_FILL = "#37474f"
FREE_FILL = "#fafafa"
REGION_FILL = "#ffd54f"
ARROW_STROKE = "#607d8b"
HEAT_GAMMA = 0.35  # heat opacity is (u / peak) ** HEAT_GAMMA, lifting the faint tails


@dataclass(frozen=True)
class RenderSpec:
    layers: tuple = ("occupancy", "regions")
    stride: int = 4
    canvas: tuple = (640, 640)

    def __post_init__(self):
        if not _is_int(self.stride) or self.stride < 1:
            raise ParameterError(f"must be an integer >= 1, got {self.stride!r}", field="stride")
        canvas = _int_pair(self.canvas)
        if canvas is None or min(canvas) < 1:
            raise ParameterError(f"must be a pair of positive integers, got {self.canvas!r}", field="canvas")
        if not isinstance(self.layers, (tuple, list)):
            raise ParameterError(f"must be a tuple or list of layer names, got {self.layers!r}", field="layers")
        for i, layer in enumerate(self.layers):
            if layer not in LAYERS:
                raise ParameterError(f"is an unknown layer {layer!r}; expected one of {LAYERS}", field=f"layers[{i}]")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    def __init__(self, worldmap: WorldMap, spec: RenderSpec):
        self.sx = spec.canvas[0] / worldmap.world_size[0]
        self.sy = spec.canvas[1] / worldmap.world_size[1]
        self.h = spec.canvas[1]
        self.hx, self.hy = worldmap.cell_size

    def to_px(self, x, y):
        return x * self.sx, self.h - y * self.sy

    def cell_px(self, col, row):
        """Pixel position of a (possibly fractional) cell's center."""
        return self.to_px((col + 0.5) * self.hx, (row + 0.5) * self.hy)

    def cells(self, row, c0, c1, fill, extra=""):
        """The rect over columns c0..c1-1 of one cell row."""
        return _rect(self, c0 * self.hx, row * self.hy, c1 * self.hx, (row + 1) * self.hy, fill, extra)


def _row_runs(mask_row):
    """(start, stop) column runs of True values in one row."""
    edges = np.flatnonzero(np.diff(mask_row, prepend=False, append=False)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _rect(cv, x0, y0, x1, y1, fill, extra=""):
    px0, py1 = cv.to_px(x0, y0)
    px1, py0 = cv.to_px(x1, y1)
    return (
        f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(px1 - px0)}"'
        f' height="{_fmt(py1 - py0)}" fill="{fill}"{extra}/>'
    )


def _on_grid(layer, grid, worldmap: WorldMap, tail=()):
    """``grid`` if its shape is the map's (H, W) plus ``tail``; else a
    ParameterError names the argument ``layer`` draws from."""
    shape = (worldmap.height_cells, worldmap.width_cells, *tail)
    if np.shape(grid) != shape:
        raise ParameterError(f"has a grid of shape {np.shape(grid)} for layer {layer!r}, not the map's {shape}",
                             field=_INPUT_OF[layer])
    return grid


def _robot_color(i: int) -> str:
    return ROBOT_COLORS[i % len(ROBOT_COLORS)]


# attributes each layer's group carries after its id
_GROUP_ATTRS = {
    "field_arrows": f' stroke="{ARROW_STROKE}" stroke-width="1"',
    "trajectories": ' fill="none" stroke-width="2"',
    "goals": ' fill="none" stroke-width="2"',
}


def render_svg(
    worldmap: WorldMap,
    spec: RenderSpec | None = None,
    heat=None,
    score_field=None,
    trajectories=None,
    scenario=None,
) -> str:
    """Compose the requested layers into an SVG 1.1 document.  A layer's
    input that is missing, off the map's grid, or a heat state without finite
    mass raises a ParameterError naming the argument (``_INPUT_OF``)."""
    spec = spec if spec is not None else RenderSpec()
    cv = _Canvas(worldmap, spec)
    given = {"heat": heat, "score_field": score_field, "trajectories": trajectories, "scenario": scenario}
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.canvas[0]}" height="{spec.canvas[1]}" '
        f'viewBox="0 0 {spec.canvas[0]} {spec.canvas[1]}">',
    ]

    for layer in spec.layers:
        if layer in _INPUT_OF and given[_INPUT_OF[layer]] is None:
            raise ParameterError(f"is missing for layer {layer!r}", field=_INPUT_OF[layer])
        parts.append(f'<g id="{layer}"{_GROUP_ATTRS.get(layer, "")}>')
        if layer == "occupancy":
            parts[-1] += _rect(cv, 0, 0, *worldmap.world_size, FREE_FILL)
            for r, row in enumerate(worldmap.occupancy):
                parts += [cv.cells(r, c0, c1, OBSTACLE_FILL) for c0, c1 in _row_runs(row)]
        elif layer == "heat":
            u = _on_grid(layer, heat.u, worldmap)
            peak = float(u.max())
            if not 0.0 < peak < np.inf:  # NaN too, which drew an empty layer
                raise ParameterError(f"has no finite mass for layer {layer!r}", field="heat")
            levels = np.floor(np.clip((u / peak) ** HEAT_GAMMA, 0, 1) * 15).astype(int)
            for r, row in enumerate(levels):
                for level in range(1, 16):
                    extra = f' fill-opacity="{_fmt(level / 15)}"'
                    parts += [cv.cells(r, c0, c1, "#d32f2f", extra) for c0, c1 in _row_runs(row == level)]
        elif layer == "regions":
            for reg in worldmap.regions:
                parts += [cv.cells(row, col, col + 1, REGION_FILL, ' fill-opacity="0.8"') for col, row in reg.cells]
                px, py = cv.cell_px(*reg.centroid())
                parts.append(
                    f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="11" '
                    f'text-anchor="middle" fill="#212121">{escape(reg.label)}</text>'
                )
        elif layer == "field_arrows":
            vecs = _on_grid(layer, score_field.vectors, worldmap, (2,))
            mags = np.sqrt((vecs**2).sum(axis=-1))
            vmax = float(mags.max())
            scale = 0.45 * spec.stride * min(cv.hx, cv.hy) / vmax if vmax > 0 else 0.0
            for r in range(0, worldmap.height_cells, spec.stride):
                for c in range(0, worldmap.width_cells, spec.stride):
                    if worldmap.occupancy[r, c] or mags[r, c] == 0.0:
                        continue
                    x0, y0 = (c + 0.5) * cv.hx, (r + 0.5) * cv.hy
                    p0 = cv.to_px(x0, y0)
                    p1 = cv.to_px(x0 + vecs[r, c, 0] * scale, y0 + vecs[r, c, 1] * scale)
                    parts.append(
                        f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
                        f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}"/>'
                    )
        elif layer == "trajectories":
            for i, tr in enumerate(trajectories):
                pts = " ".join(",".join(map(_fmt, cv.to_px(x, y))) for x, y in tr.waypoints)
                parts.append(f'<polyline stroke="{_robot_color(i)}" points="{pts}"/>')
        elif layer == "starts":
            for i, tr in enumerate(trajectories):
                px, py = cv.to_px(*tr.waypoints[0])
                parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="5" fill="{_robot_color(i)}"/>')
        elif layer == "goals":
            for i, robot in enumerate(scenario.robots):
                for reg in resolve_goal_regions(robot.instruction, scenario.map):
                    px, py = cv.cell_px(*reg.centroid())
                    parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="8" stroke="{_robot_color(i)}"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def figure_name(scenario_id: str, layers) -> str:
    """Conventional figure file name: <scenario-id>.<layerset>.svg."""
    return f"{scenario_id}.{'-'.join(layers)}.svg"
