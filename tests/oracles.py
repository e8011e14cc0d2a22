"""Test oracles: reference computations that the tests compare heatplan
against, kept out of the runtime package."""

import numpy as np

from heatplan.errors import ParameterError
from heatplan.gridmap import SemanticRegion, WorldMap


def score_ascent_reaches(fields: dict, worldmap: WorldMap, start_cell, region: SemanticRegion) -> bool:
    """Follow score vectors cell-to-cell from coarse t to fine t.

    At each level, repeatedly step to the 8-neighbor best aligned with the
    local vector until the field goes flat (floored region / local peak).
    Reaching any region cell at any point counts as success; a start in a
    component the heat never enters stalls on the floor plateau and fails.
    """
    target = set(region.cells)
    occ = worldmap.occupancy
    H, W = occ.shape
    hx, hy = worldmap.cell_size
    moves = [(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1) if (dc, dr) != (0, 0)]
    norms = {m: float(np.hypot(m[0] * hx, m[1] * hy)) for m in moves}
    col, row = int(start_cell[0]), int(start_cell[1])
    if occ[row, col]:
        raise ParameterError("ascent start cell is an obstacle")
    for t in sorted(fields.keys(), reverse=True):
        vecs = fields[t].vectors
        visited = set()
        for _ in range(H * W):  # a walk that never revisits a cell ends within H*W steps
            if (col, row) in target:
                return True
            visited.add((col, row))
            vx, vy = vecs[row, col]
            if vx * vx + vy * vy < 1e-24:
                break
            best, best_dot = None, 0.0
            for dc, dr in moves:
                nc, nr = col + dc, row + dr
                if not (0 <= nc < W and 0 <= nr < H) or occ[nr, nc]:
                    continue
                dot = (vx * dc * hx + vy * dr * hy) / norms[(dc, dr)]
                if dot > best_dot:
                    best, best_dot = (nc, nr), dot
            if best is None or best in visited:
                break
            col, row = best
    return (col, row) in target
