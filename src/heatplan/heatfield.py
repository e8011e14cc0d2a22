"""Obstacle-insulated heat solver and log-gradient score fields.

The forward process perturbs goal mass by diffusion through free space only:
obstacle cells have zero conductivity, obstacle and border faces carry zero
flux, so total mass is conserved and obstacles hold exactly zero heat at all
times.  The per-step score is the finite-difference gradient of ``log u_t``,
queried at continuous positions by bilinear interpolation.

The scheme is explicit and conservative: pairwise fluxes

    du_i = dt * K_pair * c_pair * (u_j - u_i) / h^2

with u holding per-cell mass (sum u = 1) and K_pair = 0 whenever an obstacle
is involved.  On square cells the stencil couples faces (c = 2/3) and
corners (c = 1/6, active only when the whole 2x2 corner block is free, so
nothing leaks across corner-pinched walls); this isotropic form cancels its
leading spatial error against the forward-Euler time error at the
integrator's step dt = h^2/6, leaving the far Gaussian tail accurate to a
fraction of a percent.  Every step the ladder takes, its fixed step (h^2/6
on square cells) or a shorter landing step, has nonnegative update weights,
so u stays nonnegative.  Non-square cells fall back to the plain face
stencil, with a fixed step of 0.8 times its stability bound.  The stencil
runs on each grid as one flat row of cells, with zero conductivity on the
pairs that wrap across a row end, and gives the same bits as on the 2-D
grid.

A ladder takes these explicit h^2/6 steps only up to the smooth switch
(heat time 0.05 on the 2x2 world), where cell-scale transients have decayed.
The stencil is a fixed symmetric operator A (du/dt = A u), so each later
level is exp(s A) applied to the switch state, s being the level's heat
time past that state.  All of them come from one Chebyshev recurrence: its
vectors T_k(B) u, B = I + (2 / lam_max) A, do not depend on s, only the
coefficients do, so the longest span's about sqrt(s * lam_max) stencil
applications give every level, lam_max being the Gershgorin bound on A's
spectrum.  Each such level is projected onto u >= 0 and renormalised to
unit mass; the expansion never couples cells the stencil does not, so
obstacles and sealed components stay exactly zero.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DegenerateFieldError,
    DomainError,
    MapFormatError,
    ParameterError,
    PlacementError,
)
from .gridmap import SemanticRegion, WorldMap, hop_distances, resolve_goal_regions

DEFAULT_SIGMA_MIN = 0.01
DEFAULT_SIGMA_MAX = 1.0
DEFAULT_STEP_RATIO = 0.30
DEFAULT_LOG_FLOOR = 1e-300

# Physical scores inside the explicit scheme's support never exceed ~3/h
# (support spreads one cell per step, so d/(2t) <= (6t/h)/(2t)); anything
# larger is the log-floor cliff at the support edge and is clipped to this
# scale, preserving direction.
SCORE_CAP_CELLS = 3.0

# Chebyshev coefficients below this are dropped from a late level's sum.
# The error that leaves in thin tails is far below CHEB_TOL * peak: on the
# acceptance room maps, cells down to u/peak = 8e-14 move by under 0.02%
# against the untruncated expansion, and a smaller tolerance only keeps
# coefficients near their own rounding floor (about 10% more stencil
# applications at 1e-14).
CHEB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Geometric noise ladder with derived step sizes and heat times.

    sigma[i] is the noise scale of diffusion step t = i + 1 (t runs 1..T);
    heat_time = sigma^2 / 2 (free-space Gaussian correspondence) and
    alpha = step_ratio * sigma.
    """

    T: int
    sigma: np.ndarray
    alpha: np.ndarray
    heat_time: np.ndarray

    def sigma_at(self, t: int) -> float:
        return float(self.sigma[t - 1])

    def key(self) -> tuple:
        return (self.T, float(self.sigma[0]), float(self.sigma[-1]), float(self.alpha[0] / self.sigma[0]))


def build_schedule(
    T: int = 20,
    sigma_min: float = DEFAULT_SIGMA_MIN,
    sigma_max: float = DEFAULT_SIGMA_MAX,
    step_ratio: float = DEFAULT_STEP_RATIO,
) -> NoiseSchedule:
    if T < 2:
        raise ParameterError("T must be >= 2")
    if not (0 < sigma_min < sigma_max):
        raise ParameterError("need 0 < sigma_min < sigma_max")
    if step_ratio <= 0:
        raise ParameterError("step_ratio must be positive")
    t = np.arange(T, dtype=np.float64)
    sigma = sigma_min * (sigma_max / sigma_min) ** (t / (T - 1))
    return NoiseSchedule(T=T, sigma=sigma, alpha=step_ratio * sigma, heat_time=sigma**2 / 2.0)


@dataclass(frozen=True, eq=False)
class HeatState:
    u: np.ndarray          # (H, W) per-cell mass, exactly 0 on obstacles
    time: float
    map: WorldMap


@dataclass(frozen=True, eq=False)
class ScoreField:
    """Grid of grad log u_t vectors at cell centers; zero on obstacle cells.

    ``supported`` marks cells the heat actually reached (u above the log
    floor): outside it the log is flat and the vectors are zero.  Explicit
    integration spreads mass one cell per step, so small-t fields have small
    supports; samplers can fall back to a coarser level outside.
    """

    t: int
    vectors: np.ndarray    # (H, W, 2) float64, [..., 0] = d/dx, [..., 1] = d/dy
    map: WorldMap
    supported: Optional[np.ndarray] = None  # (H, W) bool


class _Solver:
    """Precomputed pair conductivities for one map.

    The stencil reads each C-contiguous (H, W) grid as one flat row of H*W
    cells, so each flux family pairs cell p with cell p + d: d = 1 (east),
    W (north), W + 1 and W - 1 (the two diagonals), and is one contiguous
    slice pair.  A pair that wraps across a row end has zero conductivity,
    so its flux adds only +-0.0 and every cell gets the bits of the 2-D
    stencil.
    """

    def __init__(self, worldmap: WorldMap):
        free = worldmap.free
        hx, hy = worldmap.cell_size
        self.inv_hx2 = 1.0 / (hx * hx)
        self.inv_hy2 = 1.0 / (hy * hy)
        self.stability = 0.5 / (self.inv_hx2 + self.inv_hy2)
        self.isotropic = abs(hx - hy) <= 1e-12 * max(hx, hy)
        c_face = 2.0 / 3.0 if self.isotropic else 1.0
        H, W = free.shape
        # (offset d, 2-D conductivity, the cells p of its pairs (p, p + d))
        families = [
            (1, (free[:, 1:] & free[:, :-1]) * (c_face * self.inv_hx2), np.s_[:, :-1]),
            (W, (free[1:, :] & free[:-1, :]) * (c_face * self.inv_hy2), np.s_[:-1, :]),
        ]
        if self.isotropic:
            # corners, active only when the whole 2x2 block is free
            block = (free[:-1, :-1] & free[:-1, 1:] & free[1:, :-1] & free[1:, 1:]) * (self.inv_hx2 / 6.0)
            families += [(W + 1, block, np.s_[:-1, :-1]), (W - 1, block, np.s_[:-1, 1:])]
        # a family with no pairs (a grid one cell wide or high) is skipped,
        # as its 2-D flux array is empty
        self._families = []
        for d, k, cells in families:
            if k.size:
                flat = np.zeros((H, W))
                flat[cells] = k
                self._families.append((d, flat.ravel()[:H * W - d]))
        # Gershgorin: each row of A has diagonal -s and off-diagonals summing
        # to s, s at most a fully free cell's summed conductivity, so the
        # spectrum lies in [-2 s_max, 0]; 20/(3h^2) on square cells
        s_max = 2.0 * c_face * (self.inv_hx2 + self.inv_hy2)
        if self.isotropic:
            s_max += 4.0 * self.inv_hx2 / 6.0
        self.lam_max = 2.0 * s_max

    @property
    def internal_dt(self) -> float:
        if self.isotropic:
            return (1.0 / 6.0) / self.inv_hx2  # h^2 / 6, cancels the h^2 error
        return 0.8 * self.stability

    def _flux_adder(self, scale: float):
        """A function ``add(src, dst)`` doing ``dst += scale * A @ src`` in
        place, A being the stencil's rate operator (du/dt = A u).  Every flux
        is read from ``src`` before any is added, so ``src`` may be ``dst``:
        that is one explicit step of ``scale``.  Both grids must be flat
        without a copy (C-contiguous); any other grid raises."""
        fluxes = [(d, k * scale, np.empty(k.shape)) for d, k in self._families]

        def add(src: np.ndarray, dst: np.ndarray) -> None:
            s = src.view()
            s.shape = (-1,)
            t = dst.view()
            t.shape = (-1,)
            n = s.size
            for d, k, f in fluxes:
                np.subtract(s[d:], s[:n - d], out=f)
                np.multiply(f, k, out=f)
            for d, _, f in fluxes:
                t[:n - d] += f
                t[d:] -= f

        return add

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v for the (H, W) grid ``v``: the explicit scheme's rate."""
        out = np.zeros_like(v)
        self._flux_adder(1.0)(v, out)
        return out

    def run_steps(self, u: np.ndarray, n_steps: int, dt: float) -> None:
        """Advance the (H, W) mass grid ``u`` in place by ``n_steps`` steps of ``dt``."""
        step = self._flux_adder(dt)
        for _ in range(n_steps):
            step(u, u)

    def propagate(self, u: np.ndarray, spans) -> list:
        """[exp(s A) u for s in spans] from one Chebyshev recurrence
        (Tal-Ezer & Kosloff 1984).

        B = I + (2 / lam_max) A has its spectrum in [-1, 1], and exp(s A)
        = f(B) with f(x) = exp(c (x - 1)), c = s * lam_max / 2.  The vectors
        T_k(B) u do not depend on s, so the three-term recurrence runs once,
        to the degree of the longest span, and each output adds its own
        coefficients (``_exp_chebyshev_coefficients``) until they drop below
        CHEB_TOL: about sqrt(s * lam_max) stencil applications for the
        longest span.  The error is absolute, at most about CHEB_TOL times
        the peak, and the outputs are not projected, so cells far below that
        could come out slightly negative.
        """
        coefs = []
        for span in spans:
            a = _exp_chebyshev_coefficients(0.5 * span * self.lam_max)
            coefs.append(a[:np.flatnonzero(np.abs(a) > CHEB_TOL)[-1] + 1])
        # rows longest first, so the outputs still adding at degree k are a prefix
        order = sorted(range(len(coefs)), key=lambda i: -len(coefs[i]))
        lengths = np.array([len(coefs[i]) for i in order], dtype=int)
        table = np.zeros((len(coefs), max(lengths, default=1)))
        for row, i in enumerate(order):
            table[row, :lengths[row]] = coefs[i]
        out = table[:, 0, None, None] * u
        scratch = np.empty_like(out)
        # T_{k+1} = 2 B T_k - T_{k-1} = 2 T_k - T_{k-1} + (4 / lam_max) A T_k
        recur = self._flux_adder(4.0 / self.lam_max)
        prev = u.copy()                                  # T_0 u
        cur = u + (2.0 / self.lam_max) * self.apply(u)   # T_1 u
        for k in range(1, table.shape[1]):
            if k > 1:
                np.subtract(cur, prev, out=prev)
                prev += cur
                recur(cur, prev)
                prev, cur = cur, prev
            m = np.count_nonzero(lengths > k)
            np.multiply(table[:m, k, None, None], cur, out=scratch[:m])
            out[:m] += scratch[:m]
        return [out[order.index(i)] for i in range(len(coefs))]


def _exp_chebyshev_coefficients(c: float) -> np.ndarray:
    """Chebyshev coefficients of exp(c (x - 1)) on [-1, 1], c >= 0:
    a_0 = e^-c I_0(c) and a_k = 2 e^-c I_k(c), to a degree that resolves
    them to rounding.

    Miller's backward recurrence I_{k-1} = I_{k+1} + (2k / c) I_k, run on
    the ratios r_k = I_k / I_{k-1} = c / (2k + c r_{k+1}) so nothing
    overflows, from r = 0 past the last degree; the products of the ratios
    are then normalised by f(1) = a_0 + sum a_k = 1.
    """
    degree = int(8 + 2 * math.sqrt(30.0 * c))
    ratios = np.empty(degree)
    r = 0.0
    for k in range(degree, 0, -1):
        r = c / (2 * k + c * r)
        ratios[k - 1] = r
    a = np.empty(degree + 1)
    a[0] = 1.0
    a[1:] = 2.0 * np.cumprod(ratios)
    return a / a.sum()


def _smooth_switch_time(worldmap: WorldMap) -> float:
    """Heat time after which cell-scale transients have decayed and the
    ladder leaves explicit steps for Chebyshev spans; 0.05 on the default
    2x2 world."""
    return 0.0125 * worldmap.world_size[0] * worldmap.world_size[1]


def init_heat(regions, worldmap: WorldMap) -> HeatState:
    """Unit mass split equally across the source regions (goal region
    instances), uniform within each."""
    regions = tuple(regions)
    if not regions:
        raise ParameterError("init_heat needs at least one source region")
    u = np.zeros((worldmap.height_cells, worldmap.width_cells), dtype=np.float64)
    share = 1.0 / len(regions)
    for reg in regions:
        per_cell = share / len(reg.cells)
        for col, row in reg.cells:
            if worldmap.occupancy[row, col]:
                raise PlacementError(
                    f"source cell ({col},{row}) of region {reg.label!r} is an obstacle"
                )
            u[row, col] += per_cell
    return HeatState(u=u, time=0.0, map=worldmap)


def solve_to_times(regions, worldmap: WorldMap, schedule: NoiseSchedule):
    """Integrate from the source regions' heat at time 0, snapshotting
    exactly at each schedule heat time.

    Up to the smooth switch, runs explicit steps of h^2/6 plus one shorter
    landing step per snapshot.  The snapshots after the switch all come from
    one Chebyshev recurrence (``_Solver.propagate``) started at the switch
    state, one span per snapshot measured from that state; each is projected
    onto u >= 0 and renormalised to unit mass.  Snapshot times equal
    schedule.heat_time to float precision.
    """
    ops = _Solver(worldmap)
    switch = _smooth_switch_time(worldmap)
    u = init_heat(regions, worldmap).u
    now = 0.0
    snapshots = []
    late = []
    for target in schedule.heat_time:
        target = float(target)
        if target < (late[-1] if late else now) - 1e-15:
            raise ParameterError("schedule heat times must be nondecreasing")
        if not late:
            whole = int((min(target, switch) * (1 - 1e-12) - now) / ops.internal_dt)
            if whole > 0:
                ops.run_steps(u, whole, ops.internal_dt)
                now += whole * ops.internal_dt
        if late or target > switch:
            late.append(target)
            continue
        if target - now > 1e-18:
            ops.run_steps(u, 1, target - now)
        now = target
        snapshots.append(HeatState(u=u.copy(), time=target, map=worldmap))
    for target, v in zip(late, ops.propagate(u, [t - now for t in late])):
        np.maximum(v, 0.0, out=v)
        v /= v.sum()
        snapshots.append(HeatState(u=v, time=target, map=worldmap))
    return snapshots


def build_score_field(state: HeatState, log_floor: float = DEFAULT_LOG_FLOOR, t: int = 0) -> ScoreField:
    """Finite-difference gradient of log u on free cells.

    Central differences where both axis neighbors are free, one-sided where
    exactly one is, zero where neither.  Obstacle-cell u (exactly zero) is
    never read; obstacle cells get the zero vector.
    """
    worldmap = state.map
    u = state.u
    peak = float(u.max())
    if peak <= 0.0:
        raise DegenerateFieldError("heat state carries no mass")
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
        plus_free, minus_free = shift_plus[0], shift_minus[0]
        plus_val, minus_val = shift_plus[1], shift_minus[1]
        g = np.zeros((H, W), dtype=np.float64)
        both = plus_free & minus_free
        only_p = plus_free & ~minus_free
        only_m = minus_free & ~plus_free
        g[both] = (plus_val[both] - minus_val[both]) / (2 * h)
        g[only_p] = (plus_val[only_p] - lu[only_p]) / h
        g[only_m] = (lu[only_m] - minus_val[only_m]) / h
        return g

    east = (fpad[1:-1, 2:], lpad[1:-1, 2:])
    west = (fpad[1:-1, :-2], lpad[1:-1, :-2])
    north = (fpad[2:, 1:-1], lpad[2:, 1:-1])
    south = (fpad[:-2, 1:-1], lpad[:-2, 1:-1])
    gx = axis_grad(east, west, hx)
    gy = axis_grad(north, south, hy)
    vectors = np.zeros((H, W, 2), dtype=np.float64)
    vectors[..., 0] = np.where(free, gx, 0.0)
    vectors[..., 1] = np.where(free, gy, 0.0)
    cap = SCORE_CAP_CELLS / min(hx, hy)
    norm = np.sqrt((vectors**2).sum(axis=-1))
    over = norm > cap
    if over.any():
        vectors[over] *= (cap / norm[over])[:, None]
    supported = free & (u > floor)
    return ScoreField(t=t, vectors=vectors, map=worldmap, supported=supported)


def interpolate(field, p) -> np.ndarray:
    """Bilinear interpolation of score vectors at continuous points.

    ``field`` is one ScoreField, or a sequence of ScoreFields on one map with
    one field per row of ``p``.  ``p`` is one point, shape (2,), or many,
    shape (N, 2); the result has the shape of ``p``.  Queries outside the
    cell-center lattice hull (but inside the map) clamp to the hull; queries
    outside the map raise DomainError.
    """
    pts = np.asarray(p, dtype=np.float64)
    one_point = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    fields = [field] * len(pts) if isinstance(field, ScoreField) else field
    if len(fields) != len(pts):
        raise ParameterError(f"{len(fields)} fields for {len(pts)} points")
    worldmap = fields[0].map
    if not ((pts >= 0.0).all() and (pts < worldmap.world_size).all()):
        raise DomainError("interpolation point outside the world rectangle")
    W, H = worldmap.width_cells, worldmap.height_cells
    # lattice coordinates clamped to the cell-center hull; the lower corner
    # (column, row) stops one cell short of the far edge
    g = np.minimum(np.maximum(pts / worldmap.cell_size - 0.5, 0.0), (W - 1.0, H - 1.0))
    lower = np.minimum(g.astype(np.int64), (max(W - 2, 0), max(H - 2, 0)))
    frac = g - lower
    fx, fy = frac[:, :1], frac[:, 1:]
    # each point's 2x2 block of corner vectors, [row j0/j1, column i0/i1]; on
    # a map one cell wide or high the block's slice is one wide and
    # broadcasts, so the missing neighbour repeats the first
    corners = np.empty((len(pts), 2, 2, 2))
    for k, (f, (i, j)) in enumerate(zip(fields, lower.tolist())):
        corners[k] = f.vectors[j:j + 2, i:i + 2]
    v00, v01 = corners[:, 0, 0], corners[:, 0, 1]
    v10, v11 = corners[:, 1, 0], corners[:, 1, 1]
    out = (
        v00 * (1 - fx) * (1 - fy)
        + v01 * fx * (1 - fy)
        + v10 * (1 - fx) * fy
        + v11 * fx * fy
    )
    return out[0] if one_point else out


def sample_heat(state: HeatState, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw points from the heat distribution: categorical over cells by mass,
    then uniform jitter within the chosen cell.  Obstacle cells hold zero mass
    and are never drawn."""
    u = state.u
    total = float(u.sum())
    if total <= 0.0:
        raise DegenerateFieldError("cannot sample from a zero-mass heat state")
    p = (u / total).ravel()
    idx = rng.choice(p.size, size=int(n), p=p)
    W = state.map.width_cells
    cols = idx % W
    rows = idx // W
    hx, hy = state.map.cell_size
    xs = (cols + rng.random(int(n))) * hx
    ys = (rows + rng.random(int(n))) * hy
    return np.column_stack([xs, ys])


# ---------------------------------------------------------------------------
# per-label field ladders and the cache


def score_fields(
    worldmap: WorldMap,
    regions,
    schedule: NoiseSchedule,
    log_floor: float = DEFAULT_LOG_FLOOR,
) -> dict:
    """Solve one heat ladder for the given source regions; {t: ScoreField}."""
    states = solve_to_times(regions, worldmap, schedule)
    return {
        t: build_score_field(states[t - 1], log_floor, t=t)
        for t in range(1, schedule.T + 1)
    }


class FieldCache:
    """Score-field ladders keyed by (map hash, label, schedule, floor), and
    goal-distance grids keyed by (map hash, label).

    Reads are lock-free once inserted; inserts take a lock, so concurrent
    readers with a single writer are safe.
    """

    def __init__(self):
        self._store = {}
        self._hops = {}
        self._lock = threading.Lock()

    def fields(self, worldmap: WorldMap, label: str, schedule: NoiseSchedule,
               log_floor: float = DEFAULT_LOG_FLOOR) -> dict:
        key = (worldmap.content_hash(), label, schedule.key(), float(log_floor))
        hit = self._store.get(key)
        if hit is not None:
            return hit
        regions = resolve_goal_regions(label, worldmap)
        ladder = score_fields(worldmap, regions, schedule, log_floor)
        with self._lock:
            self._store.setdefault(key, ladder)
        return self._store[key]

    def goal_hops(self, worldmap: WorldMap, label: str) -> np.ndarray:
        """4-connected hop count from every cell to the nearest cell of the
        label's regions (-1 where unreached), computed once per (map, label)."""
        key = (worldmap.content_hash(), label)
        hit = self._hops.get(key)
        if hit is not None:
            return hit
        cells = [cell for reg in resolve_goal_regions(label, worldmap) for cell in reg.cells]
        hops = hop_distances(worldmap.free, cells)
        with self._lock:
            self._hops.setdefault(key, hops)
        return self._hops[key]


# ---------------------------------------------------------------------------
# discrete reachability by annealed score ascent


def _score_ascent_reaches(fields: dict, worldmap: WorldMap, start_cell, region: SemanticRegion) -> bool:
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


# ---------------------------------------------------------------------------
# field dumps (external interface; little-endian float32, row-major, row 0 =
# bottom, component order (d/dx, d/dy); the support mask, when the field has
# one, rides in the header as base64 of np.packbits in the same cell order)

_FIELD_MAGIC = b"HPSF"


def _field_header(field: ScoreField, schedule: NoiseSchedule | None) -> dict:
    header = {
        "map_hash": field.map.content_hash(),
        "t": field.t,
        "shape": [field.map.height_cells, field.map.width_cells, 2],
        "dtype": "<f4",
        "order": "row-major, row 0 = bottom, components (ddx, ddy)",
    }
    if field.supported is not None:
        header["supported_b64"] = base64.b64encode(np.packbits(field.supported, axis=None)).decode("ascii")
    if schedule is not None:
        header["schedule"] = {
            "T": schedule.T,
            "sigma": [float(s) for s in schedule.sigma],
            "heat_time": [float(h) for h in schedule.heat_time],
        }
    return header


def dump_field_bytes(field: ScoreField, schedule: NoiseSchedule | None = None) -> bytes:
    """Binary dump: magic, uint32 header length, JSON header, float32 payload."""
    header = json.dumps(_field_header(field, schedule), separators=(",", ":")).encode("utf-8")
    payload = field.vectors.astype("<f4").tobytes(order="C")
    return _FIELD_MAGIC + struct.pack("<I", len(header)) + header + payload


def load_field_bytes(data: bytes, worldmap: WorldMap) -> ScoreField:
    """Parse a binary dump made for ``worldmap``; errors name the bad field."""
    if data[:4] != _FIELD_MAGIC:
        raise MapFormatError("magic", f"expected {_FIELD_MAGIC!r}, got {bytes(data[:4])!r}")
    if len(data) < 8:
        raise MapFormatError("header_length", "dump ends before the header length")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise MapFormatError("header_length", f"{hlen} header bytes announced, {len(data) - 8} present")
    try:
        header = json.loads(data[8:8 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise MapFormatError("header", f"invalid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MapFormatError("header", "expected a JSON object")
    shape = [worldmap.height_cells, worldmap.width_cells, 2]
    if header.get("shape") != shape:
        raise MapFormatError("shape", f"expected {shape} for this map, got {header.get('shape')!r}")
    if header.get("map_hash") != worldmap.content_hash():
        raise MapFormatError("map_hash", "dump was made for a different map")
    t = header.get("t")
    if not isinstance(t, int) or isinstance(t, bool):
        raise MapFormatError("t", "expected an integer")
    payload = data[8 + hlen:]
    expected = 4 * shape[0] * shape[1] * 2  # float32 components
    if len(payload) != expected:
        raise MapFormatError("payload", f"expected {expected} bytes for shape {shape}, got {len(payload)}")
    vec = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
    return ScoreField(t=t, vectors=vec, map=worldmap, supported=_load_supported(header, shape[:2]))


def _load_supported(header: dict, shape) -> Optional[np.ndarray]:
    """The header's packed support mask, or None for a dump without one."""
    packed = header.get("supported_b64")
    if packed is None:
        return None
    try:
        raw = base64.b64decode(packed, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise MapFormatError("supported", f"invalid base64: {exc}") from exc
    cells = shape[0] * shape[1]
    if len(raw) != -(-cells // 8):
        raise MapFormatError("supported", f"expected {-(-cells // 8)} packed bytes for {cells} cells, got {len(raw)}")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=cells).astype(bool).reshape(shape)


def dump_field_json(field: ScoreField, schedule: NoiseSchedule | None = None) -> str:
    doc = _field_header(field, schedule)
    doc["data_b64"] = base64.b64encode(field.vectors.astype("<f4").tobytes(order="C")).decode("ascii")
    return json.dumps(doc, separators=(",", ":")) + "\n"


def save_field(field: ScoreField, path, schedule: NoiseSchedule | None = None, fmt: str = "bin") -> None:
    path = Path(path)
    if fmt == "bin":
        path.write_bytes(dump_field_bytes(field, schedule))
    elif fmt == "json":
        path.write_text(dump_field_json(field, schedule), encoding="utf-8")
    else:
        raise ParameterError(f"unknown field dump format {fmt!r}")
