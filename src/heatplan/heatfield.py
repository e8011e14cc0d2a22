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
fraction of a percent.  Its steps, the fixed step (h^2/6 on square cells)
and the shorter landing steps, have nonnegative update weights.  Non-square
cells fall back to the plain face stencil, with a fixed step of 0.8 times
its stability bound.  The stencil runs on each grid as one flat row of
cells, with zero conductivity on the pairs that wrap across a row end, and
gives the same bits as on the 2-D grid.

A ladder holds that explicit scheme's own levels, computed without
stepping.  The stencil is a fixed symmetric operator A (du/dt = A u), so
whole steps and one landing step per level make level j the polynomial
P_j(A) u0 = prod (I + dt_i A)^{n_i} u0, u0 being the sources' heat at time
0.  All levels come from one Chebyshev recurrence (Tal-Ezer & Kosloff
1984): its vectors T_k(B) u0, B = I + (2 / lam_max) A, are the same for
every level and only the coefficients differ, so about sqrt(15 t lam_max)
stencil applications give every level up to heat time t: 502 on a 128x128
map, where the explicit scheme takes 12,288 steps.  lam_max, the maximum of
the stencil's lattice symbol, bounds A's spectrum.  The expansion's error
is absolute, near CHEB_TOL times the peak, so each level's cells below
CHEB_TOL times its peak are set to zero and the level is renormalised to
unit mass; the expansion never couples cells the stencil does not, so
obstacles and sealed components stay exactly zero.
"""

from __future__ import annotations

import base64
import functools
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
from .gridmap import WorldMap, hop_distances, resolve_goal_regions

DEFAULT_SIGMA_MIN = 0.01
DEFAULT_SIGMA_MAX = 1.0
DEFAULT_STEP_RATIO = 0.30
DEFAULT_LOG_FLOOR = 1e-300

# Physical scores inside the explicit scheme's support never exceed ~3/h
# (support spreads one cell per step, so d/(2t) <= (6t/h)/(2t)); anything
# larger is the log-floor cliff at the support edge and is clipped to this
# scale, preserving direction.
SCORE_CAP_CELLS = 3.0

# A level's Chebyshev sum ends at its last coefficient above this, and its
# cells below this times its peak, which that sum does not resolve, are set
# to zero.  Every level is then within 2e-10 of its peak of the all-explicit
# ladder on the benchmark and acceptance maps; a smaller tolerance only
# keeps coefficients near their own rounding floor (about 10% more stencil
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
    floor): outside it the log is flat and the vectors are zero.  Heat
    spreads one cell per explicit step, and a ladder level keeps only cells
    above CHEB_TOL times its peak, so small-t fields have small supports;
    samplers can fall back to a coarser level outside.
    """

    t: int
    vectors: np.ndarray    # (H, W, 2) float64, [..., 0] = d/dx, [..., 1] = d/dy
    map: WorldMap
    supported: Optional[np.ndarray] = None  # (H, W) bool


class _Solver:
    """The stencil of one map, its explicit step and its spectral bound.

    ``ladder`` gives every level of a ladder from one Chebyshev recurrence
    on the stencil; ``run_steps`` reaches the same levels by explicit steps,
    the reference that the recurrence reproduces.

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
        # -x.Ax is a sum of k (x_p - x_q)^2 over the stencil's pairs, and
        # taking x as zero off the grid on the unbounded lattice only adds
        # pairs, so A's spectrum lies in [-lam_max, 0], lam_max being the
        # lattice symbol's maximum, at frequency (pi, pi): 16/(3h^2) on
        # square cells, where the corner pairs add nothing
        self.lam_max = 4.0 * c_face * (self.inv_hx2 + self.inv_hy2)

    @property
    def internal_dt(self) -> float:
        if self.isotropic:
            return (1.0 / 6.0) / self.inv_hx2  # h^2 / 6, cancels the h^2 error
        return 0.8 * self.stability

    def _stencil(self, scale: float, src: np.ndarray, dst: np.ndarray):
        """A function ``step()`` doing ``dst += scale * A @ src`` in place, A
        being the stencil's rate operator (du/dt = A u).  The slice views of
        both grids are built here, once, and every ufunc writes to a given
        ``out``, so a step is four calls per flux family and nothing more.
        Every flux is read from ``src`` before any is added, so ``src`` may
        be ``dst``: that is one explicit step of ``scale``.  Both grids must
        be flat without a copy (C-contiguous); any other grid raises."""
        s = src.view()
        s.shape = (-1,)
        t = dst.view()
        t.shape = (-1,)
        n = s.size
        fluxes = [(s[d:], s[:n - d], k * scale, np.empty(n - d), t[:n - d], t[d:]) for d, k in self._families]
        subtract, multiply, add = np.subtract, np.multiply, np.add

        def step() -> None:
            for hi, lo, k, f, _, _ in fluxes:
                subtract(hi, lo, f)
                multiply(f, k, f)
            for _, _, _, f, t_lo, t_hi in fluxes:
                add(t_lo, f, t_lo)
                subtract(t_hi, f, t_hi)

        return step

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v for the (H, W) grid ``v``: the explicit scheme's rate."""
        out = np.zeros_like(v)
        self._stencil(1.0, v, out)()
        return out

    def run_steps(self, u: np.ndarray, n_steps: int, dt: float) -> None:
        """Advance the (H, W) mass grid ``u`` in place by ``n_steps`` steps of ``dt``."""
        step = self._stencil(dt, u, u)
        for _ in range(n_steps):
            step()

    def ladder_coefficients(self, heat_times) -> tuple:
        """Per heat time, the Chebyshev coefficients of the explicit
        ladder's polynomial, up to the last one above CHEB_TOL, as read-only
        arrays shared by every map with the same ``lam_max`` and
        ``internal_dt`` (``_ladder_coefficients``)."""
        return _ladder_coefficients(self.lam_max, self.internal_dt, tuple(map(float, heat_times)), CHEB_TOL)

    def ladder(self, u: np.ndarray, heat_times) -> list:
        """[P_j(A) u for each heat time] from one Chebyshev recurrence
        (Tal-Ezer & Kosloff 1984), run to the longest level's degree: the
        vectors T_k(B) u are the same for every level, which adds its own
        ``ladder_coefficients``.  Each level is a grid of its own, as one
        block of all of them spills the cache.  The error is absolute, near
        CHEB_TOL times the peak, so cells far below that can come out
        slightly negative.

        The recurrence runs on two flat buffers that take turns holding
        T_{k-1} u and T_k u, each with its stencil views built once.
        """
        coefs = self.ladder_coefficients(heat_times)
        out = [c[0] * u for c in coefs]
        prev = u.ravel().copy()                                    # T_0 u
        cur = (u + (2.0 / self.lam_max) * self.apply(u)).ravel()   # T_1 u
        scratch = np.empty_like(cur)
        # T_{k+1} = 2 B T_k - T_{k-1} = 2 T_k - T_{k-1} + (4 / lam_max) A T_k,
        # written over T_{k-1}; the buffers then swap roles, and so do the steps
        scale = 4.0 / self.lam_max
        recur, recur_next = self._stencil(scale, cur, prev), self._stencil(scale, prev, cur)
        # (coefficients, flat level) of the levels still taking terms, longest first
        live = sorted(((c.tolist(), v.ravel()) for c, v in zip(coefs, out)), key=lambda cv: -len(cv[0]))
        subtract, multiply, add = np.subtract, np.multiply, np.add
        for k in range(1, len(live[0][0]) if live else 1):
            if k > 1:
                subtract(cur, prev, prev)
                add(prev, cur, prev)
                recur()
                prev, cur = cur, prev
                recur, recur_next = recur_next, recur
            while len(live[-1][0]) <= k:
                live.pop()
            for c, v in live:
                multiply(cur, c[k], scratch)
                add(v, scratch, v)
        return out


@functools.lru_cache(maxsize=8)
def _ladder_coefficients(lam_max: float, dt: float, heat_times: tuple, tol: float) -> tuple:
    """Per heat time, the Chebyshev coefficients of the explicit ladder's
    polynomial, up to the last one above ``tol``.

    Whole steps of ``dt`` and one landing step per heat time make level j
    P_j(A) = prod (I + dt_i A)^{n_i}, which is f_j(B) for f_j(x) =
    prod (1 + dt_i a)^{n_i}, a = (lam_max / 2) (x - 1).  One DCT-I (an FFT
    of the even extension) of f_j on the Chebyshev-Lobatto nodes
    cos(pi k / n) gives its coefficients.  They fall like those of
    exp(c (x - 1)), c = lam_max t / 2, below rounding by degree
    8 + 2 sqrt(30 c), and n is at least twice that degree for the last heat
    time, so what aliases onto them from f_j's far higher degree is below
    rounding too.

    The result depends on nothing else, so it is memoised: the maps of one
    size share it (every ladder of a 64x64 benchmark run has one key).  The
    arrays are read-only, as every caller gets the same ones.
    """
    degree = int(8 + 2 * math.sqrt(15.0 * lam_max * np.max(heat_times, initial=0.0)))
    n = 1 << (2 * degree - 1).bit_length()
    a = 0.5 * lam_max * (np.cos(np.arange(n + 1) * (math.pi / n)) - 1.0)
    f = np.ones(n + 1)
    values = np.empty((len(heat_times), n + 1))
    now = 0.0
    for j, target in enumerate(heat_times):
        if target < now - 1e-15:
            raise ParameterError("schedule heat times must be nondecreasing")
        whole = int((target * (1 - 1e-12) - now) / dt)
        if whole > 0:
            f = f * (1.0 + dt * a) ** whole
            now += whole * dt
        if target - now > 1e-18:
            f = f * (1.0 + (target - now) * a)
        now = target
        values[j] = f
    coefs = np.fft.rfft(np.concatenate([values, values[:, -2:0:-1]], axis=1), axis=1).real / n
    coefs[:, [0, -1]] *= 0.5
    kept = tuple(c[:np.flatnonzero(np.abs(c) > tol)[-1] + 1].copy() for c in coefs)
    for c in kept:
        c.flags.writeable = False
    return kept


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
    """The explicit ladder's levels from the source regions' heat at time 0,
    one per schedule heat time (``_Solver.ladder``).

    Each level's cells below CHEB_TOL times its peak, which the expansion
    does not resolve, are set to zero, and the level is renormalised to
    unit mass.  Snapshot times equal schedule.heat_time to float precision.
    """
    ops = _Solver(worldmap)
    levels = ops.ladder(init_heat(regions, worldmap).u, schedule.heat_time)
    snapshots = []
    for target, v in zip(schedule.heat_time, levels):
        v[v < CHEB_TOL * v.max()] = 0.0
        v /= v.sum()
        snapshots.append(HeatState(u=v, time=float(target), map=worldmap))
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


def interpolate(field, p):
    """Bilinear interpolation of score vectors at continuous points.

    ``field`` is one ScoreField, or a sequence of ScoreFields on one map with
    one field per point of ``p``.  ``p`` is one point, shape (2,), or many,
    shape (N, 2), and the result is an array of the shape of ``p``; or ``p``
    is a ``list`` of N [x, y] pairs of floats, and the result is a list of N
    [sx, sy] lists, with no array made.  Both forms give the same bits.
    Queries outside the cell-center lattice hull (but inside the map) clamp
    to the hull; queries outside the map (or NaN) raise DomainError.
    Malformed points raise a ParameterError naming ``p``, and a field count
    other than the point count, or no field at all, one naming ``field``.

    Each point is a loop over Python floats, which costs less than numpy
    calls on arrays this small.  Per component the result is
    v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy, each
    product and sum taken left to right; on a map one cell wide or high the
    missing neighbour repeats the first.
    """
    as_list = isinstance(p, list)
    if as_list:
        pts = p
    else:
        try:
            arr = np.asarray(p, dtype=np.float64)
            pts = arr.reshape(-1, 2).tolist()
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"must be a point or an (N, 2) array of points: {exc}", field="p") from exc
    if isinstance(field, ScoreField):
        fields = [field] * len(pts)
        worldmap = field.map
    else:
        fields = field
        if len(fields) != len(pts):
            raise ParameterError(f"holds {len(fields)} fields for {len(pts)} points", field="field")
        if not fields:
            raise ParameterError("must hold at least one field", field="field")
        worldmap = fields[0].map
    w, h = worldmap.world_size
    hx, hy = worldmap.cell_size
    W, H = worldmap.width_cells, worldmap.height_cells
    # lattice coordinates are clamped to the cell-center hull; the lower
    # corner (column, row) stops one cell short of the far edge, and
    # conditional expressions stand in for min and max, which cost more here
    last_x, last_y = W - 1.0, H - 1.0
    top_i, top_j = max(W - 2, 0), max(H - 2, 0)
    out = []
    try:
        for f, (x, y) in zip(fields, pts):
            if not (0.0 <= x < w and 0.0 <= y < h):
                raise DomainError("interpolation point outside the world rectangle")
            gx = x / hx - 0.5
            gx = 0.0 if gx < 0.0 else last_x if gx > last_x else gx
            gy = y / hy - 0.5
            gy = 0.0 if gy < 0.0 else last_y if gy > last_y else gy
            i, j = int(gx), int(gy)
            i, j = (i if i < top_i else top_i), (j if j < top_j else top_j)
            fx = gx - i
            fy = gy - j
            # the 2x2 block [row j0/j1][column i0/i1]; on a map one cell wide or
            # high its slice is one wide, and [-1] repeats the first
            block = f.vectors[j:j + 2, i:i + 2].tolist()
            r0, r1 = block[0], block[-1]
            v00, v01, v10, v11 = r0[0], r0[-1], r1[0], r1[-1]
            ex, ey = 1 - fx, 1 - fy
            sx = v00[0] * ex * ey + v01[0] * fx * ey
            sx += v10[0] * ex * fy
            sx += v11[0] * fx * fy
            sy = v00[1] * ex * ey + v01[1] * fx * ey
            sy += v10[1] * ex * fy
            sy += v11[1] * fx * fy
            out.append([sx, sy])
    except (TypeError, ValueError) as exc:  # a list row that is not a pair of numbers
        raise ParameterError(f"must hold [x, y] pairs of numbers: {exc}", field="p") from exc
    return out if as_list else np.array(out, dtype=np.float64).reshape(arr.shape)


def sample_heat(state: HeatState, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw points from the heat distribution: categorical over cells by mass,
    then uniform jitter within the chosen cell.  Obstacle cells hold zero mass
    and are never drawn."""
    if n < 0:
        raise ParameterError(f"must be >= 0, got {n!r}", field="n")
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
