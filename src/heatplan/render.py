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

from .errors import ParameterError, RenderError
from .gridmap import WorldMap, _int_pair, _is_int, resolve_goal_regions

LAYERS = ("occupancy", "regions", "heat", "field_arrows", "trajectories", "starts", "goals")

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
        for layer in self.layers:
            if layer not in LAYERS:
                raise RenderError(layer, f"unknown layer; expected one of {LAYERS}")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    def __init__(self, worldmap: WorldMap, spec: RenderSpec):
        self.sx = spec.canvas[0] / worldmap.world_size[0]
        self.sy = spec.canvas[1] / worldmap.world_size[1]
        self.h = spec.canvas[1]

    def to_px(self, x, y):
        return x * self.sx, self.h - y * self.sy


def _row_runs(mask_row):
    """(start, stop) column runs of True values in one row."""
    runs = []
    start = None
    for c, v in enumerate(mask_row):
        if v and start is None:
            start = c
        elif not v and start is not None:
            runs.append((start, c))
            start = None
    if start is not None:
        runs.append((start, len(mask_row)))
    return runs


def _rect(cv, x0, y0, x1, y1, fill, extra=""):
    px0, py1 = cv.to_px(x0, y0)
    px1, py0 = cv.to_px(x1, y1)
    return (
        f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(px1 - px0)}"'
        f' height="{_fmt(py1 - py0)}" fill="{fill}"{extra}/>'
    )


def render_svg(
    worldmap: WorldMap,
    spec: RenderSpec | None = None,
    heat=None,
    score_field=None,
    trajectories=None,
    scenario=None,
) -> str:
    """Compose the requested layers into an SVG 1.1 document."""
    spec = spec if spec is not None else RenderSpec()
    cv = _Canvas(worldmap, spec)
    hx, hy = worldmap.cell_size
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.canvas[0]}" height="{spec.canvas[1]}" '
        f'viewBox="0 0 {spec.canvas[0]} {spec.canvas[1]}">',
    ]

    for layer in spec.layers:
        if layer == "occupancy":
            parts.append(f'<g id="occupancy">{_rect(cv, 0, 0, *worldmap.world_size, FREE_FILL)}')
            occ = worldmap.occupancy
            for r in range(worldmap.height_cells):
                for c0, c1 in _row_runs(occ[r]):
                    parts.append(_rect(cv, c0 * hx, r * hy, c1 * hx, (r + 1) * hy, OBSTACLE_FILL))
            parts.append("</g>")
        elif layer == "heat":
            if heat is None:
                raise RenderError(layer)
            u = heat.u
            peak = float(u.max())
            if peak <= 0:
                raise RenderError(layer, "heat state has no mass")
            levels = np.floor(np.clip((u / peak) ** HEAT_GAMMA, 0, 1) * 15).astype(int)
            parts.append('<g id="heat">')
            for r in range(worldmap.height_cells):
                row = levels[r]
                for level in range(1, 16):
                    for c0, c1 in _row_runs(row == level):
                        opacity = level / 15
                        parts.append(
                            _rect(
                                cv, c0 * hx, r * hy, c1 * hx, (r + 1) * hy,
                                "#d32f2f", extra=f' fill-opacity="{_fmt(opacity)}"',
                            )
                        )
            parts.append("</g>")
        elif layer == "regions":
            parts.append('<g id="regions">')
            for reg in worldmap.regions:
                for col, row in reg.cells:
                    parts.append(
                        _rect(cv, col * hx, row * hy, (col + 1) * hx, (row + 1) * hy,
                              REGION_FILL, extra=' fill-opacity="0.8"')
                    )
                ccol, crow = reg.centroid()
                px, py = cv.to_px((ccol + 0.5) * hx, (crow + 0.5) * hy)
                parts.append(
                    f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="11" '
                    f'text-anchor="middle" fill="#212121">{escape(reg.label)}</text>'
                )
            parts.append("</g>")
        elif layer == "field_arrows":
            if score_field is None:
                raise RenderError(layer)
            parts.append(f'<g id="field_arrows" stroke="{ARROW_STROKE}" stroke-width="1">')
            vecs = score_field.vectors
            mags = np.sqrt((vecs**2).sum(axis=-1))
            vmax = float(mags.max())
            scale = 0.45 * spec.stride * min(hx, hy) / vmax if vmax > 0 else 0.0
            for r in range(0, worldmap.height_cells, spec.stride):
                for c in range(0, worldmap.width_cells, spec.stride):
                    if worldmap.occupancy[r, c] or mags[r, c] == 0.0:
                        continue
                    x0, y0 = (c + 0.5) * hx, (r + 0.5) * hy
                    x1 = x0 + vecs[r, c, 0] * scale
                    y1 = y0 + vecs[r, c, 1] * scale
                    p0, p1 = cv.to_px(x0, y0), cv.to_px(x1, y1)
                    parts.append(
                        f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
                        f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}"/>'
                    )
            parts.append("</g>")
        elif layer == "trajectories":
            if trajectories is None:
                raise RenderError(layer)
            parts.append('<g id="trajectories" fill="none" stroke-width="2">')
            for i, tr in enumerate(trajectories):
                color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
                pts = " ".join(
                    f"{_fmt(cv.to_px(x, y)[0])},{_fmt(cv.to_px(x, y)[1])}" for x, y in tr.waypoints
                )
                parts.append(f'<polyline stroke="{color}" points="{pts}"/>')
            parts.append("</g>")
        elif layer == "starts":
            if trajectories is None:
                raise RenderError(layer)
            parts.append('<g id="starts">')
            for i, tr in enumerate(trajectories):
                color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
                px, py = cv.to_px(tr.waypoints[0][0], tr.waypoints[0][1])
                parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="5" fill="{color}"/>')
            parts.append("</g>")
        elif layer == "goals":
            if scenario is None:
                raise RenderError(layer)
            parts.append('<g id="goals" fill="none" stroke-width="2">')
            for i, robot in enumerate(scenario.robots):
                color = ROBOT_COLORS[i % len(ROBOT_COLORS)]
                for reg in resolve_goal_regions(robot.instruction, scenario.map):
                    ccol, crow = reg.centroid()
                    px, py = cv.to_px((ccol + 0.5) * hx, (crow + 0.5) * hy)
                    parts.append(
                        f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="8" stroke="{color}"/>'
                    )
            parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def figure_name(scenario_id: str, layers) -> str:
    """Conventional figure file name: <scenario-id>.<layerset>.svg."""
    return f"{scenario_id}.{'-'.join(layers)}.svg"
