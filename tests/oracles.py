"""Test oracles: reference computations that the tests compare heatplan
against, kept out of the runtime package."""

import math
from collections import deque

import numpy as np

from heatplan.errors import ParameterError
from heatplan.gridmap import Scenario, SemanticRegion, WorldMap, resolve_goal_regions
from heatplan.heatfield import DEFAULT_LOG_FLOOR, SCORE_CAP_CELLS, ScoreField
from heatplan.planner import SEGMENT_SAMPLES, _SEG_FRACTIONS, PlannerConfig, _point_to_region_distance, _points_free


def hop_distances(occ, seeds) -> np.ndarray:
    """A deque BFS, the oracle for ``gridmap.hop_distances``: hop distance
    from the nearest of the free ``seeds`` cells, -1 where unreached."""
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


def largest_component(occ) -> np.ndarray:
    """The oracle for ``gridmap._largest_component``: one BFS from every free
    cell not yet reached, in row-major order, keeping the first component of
    the largest size, so a tie goes to the lowest row-major free cell."""
    seen = occ.copy()
    best, best_size = None, 0
    for r, c in np.argwhere(~occ):
        if seen[r, c]:
            continue
        mask = hop_distances(occ, [(c, r)]) >= 0
        seen |= mask
        size = int(mask.sum())
        if size > best_size:
            best, best_size = mask, size
    return best


def run_steps(ops, u, n_steps: int, dt: float) -> None:
    """The explicit scheme, the reference that ``_Solver.ladder`` reproduces:
    advance the (H, W) mass grid ``u`` in place by ``n_steps`` steps of
    ``dt`` on the stencil of the ``_Solver`` ``ops``."""
    step = ops._stencil(dt, u, u)
    for _ in range(n_steps):
        step()


def build_score_field(state, log_floor: float = DEFAULT_LOG_FLOOR, t: int = 0) -> ScoreField:
    """The whole-grid score field, the oracle for
    ``heatfield.build_score_field``, which must give the same bits: central
    differences of log u where both axis neighbours are free, one-sided
    where exactly one is, zero where neither is and on obstacle cells, each
    chosen per cell by ``np.where`` over a padded free mask."""
    worldmap = state.map
    u = state.u
    peak = float(u.max())
    if peak <= 0.0:
        raise ParameterError("carries no mass", field="state")
    free = worldmap.free
    floor = log_floor * peak
    lu = np.log(np.maximum(u, floor))
    hx, hy = worldmap.cell_size
    H, W = u.shape

    # pad the free mask so out-of-bounds counts as not-free
    fpad = np.zeros((H + 2, W + 2), dtype=bool)
    fpad[1:-1, 1:-1] = free
    lpad = np.zeros((H + 2, W + 2), dtype=np.float64)
    lpad[1:-1, 1:-1] = lu

    def axis_grad(shift_plus, shift_minus, h):
        # whole-grid differences, selected per cell (every padded value is
        # finite, so the unselected ones are harmless)
        plus_free, minus_free = shift_plus[0], shift_minus[0]
        plus_val, minus_val = shift_plus[1], shift_minus[1]
        one_sided = np.where(plus_free, (plus_val - lu) / h, np.where(minus_free, (lu - minus_val) / h, 0.0))
        g = np.where(plus_free & minus_free, (plus_val - minus_val) / (2 * h), one_sided)
        return np.where(free, g, 0.0)

    east = (fpad[1:-1, 2:], lpad[1:-1, 2:])
    west = (fpad[1:-1, :-2], lpad[1:-1, :-2])
    north = (fpad[2:, 1:-1], lpad[2:, 1:-1])
    south = (fpad[:-2, 1:-1], lpad[:-2, 1:-1])
    gx = axis_grad(east, west, hx)
    gy = axis_grad(north, south, hy)
    # vectors longer than the cap are scaled onto it; the others by 1.0
    cap = SCORE_CAP_CELLS / min(hx, hy)
    norm = np.sqrt(gx * gx + gy * gy)
    scale = np.ones((H, W))
    np.divide(cap, norm, out=scale, where=norm > cap)
    vectors = np.empty((H, W, 2))
    np.multiply(gx, scale, out=vectors[..., 0])
    np.multiply(gy, scale, out=vectors[..., 1])
    supported = free & (u > floor)
    return ScoreField(t=t, vectors=vectors, map=worldmap, supported=supported)


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


def interpolate(field, p) -> np.ndarray:
    """The whole-array bilinear lookup: the oracle for
    ``heatfield.interpolate``, which must give the same bits."""
    pts = np.asarray(p, dtype=np.float64)
    one_point = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    fields = [field] * len(pts) if isinstance(field, ScoreField) else field
    if len(fields) != len(pts):
        raise ParameterError(f"{len(fields)} fields for {len(pts)} points")
    worldmap = fields[0].map
    if not ((pts >= 0.0).all() and (pts < worldmap.world_size).all()):
        raise ParameterError("holds a point outside the world rectangle", field="p")
    W, H = worldmap.width_cells, worldmap.height_cells
    # lattice coordinates clamped to the cell-center hull; the lower corner
    # (column, row) stops one cell short of the far edge
    g = pts / worldmap.cell_size
    g -= 0.5
    np.maximum(g, 0.0, out=g)
    np.minimum(g, (W - 1.0, H - 1.0), out=g)
    lower = np.minimum(g.astype(np.int64), (max(W - 2, 0), max(H - 2, 0)))
    frac = g - lower
    # each point's 2x2 block of corner vectors, [row j0/j1, column i0/i1]; on
    # a map one cell wide or high the block's slice is one wide and
    # broadcasts, so the missing neighbour repeats the first
    corners = np.empty((len(pts), 2, 2, 2))
    for k, (f, (i, j)) in enumerate(zip(fields, lower.tolist())):
        corners[k] = f.vectors[j:j + 2, i:i + 2]
    # v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy, each
    # product and sum in that order, in a few whole-array operations:
    # weights[:, axis] is ((1 - f), f) along x (axis 0) and y (axis 1)
    weights = np.empty((len(pts), 2, 2))
    np.subtract(1, frac, out=weights[:, :, 0])
    weights[:, :, 1] = frac
    terms = corners * weights[:, None, 0, :, None]
    terms *= weights[:, 1, :, None, None]
    out = terms[:, 0, 0] + terms[:, 0, 1]
    out += terms[:, 1, 0]
    out += terms[:, 1, 1]
    return out[0] if one_point else out


def pairwise(positions):
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) < 1:
        raise ParameterError("positions must be an (N, 2) array with N >= 1")
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)  # a robot is no neighbour of itself
    if not dist.all():
        raise ParameterError("puts two robots on the same point", field="positions")
    return pos, diff, dist


def interrobot_cost(positions, d_margin: float) -> float:
    """Sum over pairs of max(0, -log(d / d_margin)): the proximity cost whose
    negative gradient ``planner.interrobot_guidance`` is."""
    _, _, dist = pairwise(positions)
    n = dist.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, 1)
    d = dist[iu]
    below = d < d_margin
    if not below.any():
        return 0.0
    return float(np.sum(-np.log(d[below] / d_margin)))


def interrobot_guidance(positions, d_margin: float) -> np.ndarray:
    """The whole-array guidance: the oracle for
    ``planner.interrobot_guidance``, which must give the same bits.

    Pairs with d < d_margin contribute (x_i - x_j) / d^2 to robot i; a
    pair whose weight 1/d^2 overflows to inf raises a ParameterError naming
    ``positions``.
    """
    pos, diff, dist = pairwise(positions)
    if len(pos) < 2:
        return np.zeros_like(pos)
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(dist < d_margin, 1.0 / (dist * dist), 0.0)
    if np.isinf(w).any():
        raise ParameterError("puts two robots too close for a finite guidance", field="positions")
    return (w[:, :, None] * diff).sum(axis=1)


def guidance_loop(xy: list, d_margin: float) -> list:
    """``planner._guidance`` visiting every pair, i ascending, then j
    ascending, on a list of N [x, y] floats: the oracle for the swept pair
    loop, which must give the same bits and raise on the same pair."""
    n = len(xy)
    g = [[0.0, 0.0] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = xy[i][0] - xy[j][0]
            dy = xy[i][1] - xy[j][1]
            d = math.sqrt(dx * dx + dy * dy)
            if d == 0.0:
                raise ParameterError("puts two robots on the same point", field="positions")
            if d < d_margin:
                dd = d * d
                w = 1.0 / dd if dd else math.inf
                if w == math.inf:
                    raise ParameterError("puts two robots too close for a finite guidance", field="positions")
                tx, ty = w * dx, w * dy
                g[i][0] += tx
                g[i][1] += ty
                g[j][0] -= tx
                g[j][1] -= ty
    return g


def separate_loop(positions: list, new: list, d_safe: float) -> list:
    """``planner._separate`` measuring every pair in each round: the oracle
    for the swept separation pass.  ``new`` is changed in place and
    returned."""
    n = len(new)
    for _round in range(n + 1):
        bad = [False] * n
        for i in range(n):
            for j in range(i + 1, n):
                dx = new[i][0] - new[j][0]
                dy = new[i][1] - new[j][1]
                if math.sqrt(dx * dx + dy * dy) <= d_safe:
                    bad[i] = bad[j] = True
        revert = [k for k in range(n) if bad[k] and (new[k][0] != positions[k][0] or new[k][1] != positions[k][1])]
        if not revert:
            break
        for k in revert:
            new[k] = positions[k]
    return new


def pair_distances(trajectories):
    """Per-micro-step distance of every robot pair: [((i, j), (n_micro,) array)]
    for i < j in trajectory order.  The pair-by-pair loop, the oracle for
    ``planner.pair_distances``."""
    stacked = np.stack([tr.micro_steps for tr in trajectories])  # (N, n_micro, 2)
    n = len(stacked)
    return [
        ((i, j), np.sqrt(((stacked[i] - stacked[j]) ** 2).sum(axis=1)))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def validate_plan(trajectories, scenario: Scenario, config: PlannerConfig):
    """Check static freedom, pairwise separation and goal membership.

    Returns (static_violations, inter_robot_violations, goal_reached).
    Static: every micro-step position plus 8 evenly spaced points between
    consecutive micro-steps must be free.  Inter-robot: pairwise distance at
    every micro-step index must exceed d_safe.  Goal: the final position lies
    inside a resolved region or within goal_tol of its nearest cell.

    The robot-by-robot and pair-by-pair loops: the oracle for
    ``planner.validate_plan``, which must return equal values.
    """
    if not trajectories:
        raise ParameterError("must hold at least one trajectory", field="trajectories")
    counts = {len(tr.micro_steps) for tr in trajectories}
    if len(counts) != 1:
        raise ParameterError("have mismatched micro-step counts", field="trajectories")
    worldmap = scenario.map
    n_micro = counts.pop()

    static_violations = []
    for tr in trajectories:
        path = np.vstack([tr.waypoints[0:1], tr.micro_steps])  # (n_micro+1, 2)
        if n_micro == 0:
            continue
        a, b = path[:-1], path[1:]
        # (SEGMENT_SAMPLES, n_micro, 2): interior samples then the endpoint
        pts = a[None, :, :] + _SEG_FRACTIONS[:, None, None] * (b - a)[None, :, :]
        ok = _points_free(worldmap, pts.reshape(-1, 2)).reshape(SEGMENT_SAMPLES, n_micro)
        bad_steps = np.nonzero(~ok.all(axis=0))[0]
        for step in bad_steps:
            first_bad = int(np.nonzero(~ok[:, step])[0][0])
            where = pts[first_bad, step]
            static_violations.append(
                {"robot": tr.robot_id, "step": int(step), "position": [float(where[0]), float(where[1])]}
            )

    inter_violations = []
    if len(trajectories) > 1 and n_micro > 0:
        for (i, j), d in pair_distances(trajectories):
            a, b = trajectories[i], trajectories[j]
            for step in np.nonzero(d <= config.d_safe)[0]:
                inter_violations.append(
                    {
                        "robots": [a.robot_id, b.robot_id],
                        "step": int(step),
                        "positions": [
                            [float(v) for v in a.micro_steps[step]],
                            [float(v) for v in b.micro_steps[step]],
                        ],
                        "distance": float(d[step]),
                    }
                )
        inter_violations.sort(key=lambda v: (v["step"], v["robots"]))

    by_id = {r.id: r for r in scenario.robots}
    goal_reached = []
    for tr in trajectories:
        robot = by_id[tr.robot_id]
        regions = resolve_goal_regions(robot.instruction, worldmap)
        final = tr.micro_steps[-1] if n_micro else tr.waypoints[-1]
        dist = min(_point_to_region_distance(final, reg, worldmap) for reg in regions)
        goal_reached.append(dist <= config.goal_tol)
    return static_violations, inter_violations, tuple(goal_reached)


def polyline_length(points: np.ndarray) -> float:
    """One robot's path length, the oracle for ``bench.run_one``'s
    ``path_lengths``."""
    if len(points) < 2:
        return 0.0
    return float(np.sqrt(((points[1:] - points[:-1]) ** 2).sum(axis=1)).sum())
