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
stencil applications give every level up to heat time t: 354 on a 128x128
map, where the explicit scheme takes 6,022 steps.  lam_max, the maximum of
the stencil's lattice symbol, bounds A's spectrum.  The expansion's error
is absolute, near CHEB_TOL times the peak, so each level's cells below
CHEB_TOL times its peak are set to zero and the level is renormalised to
unit mass; the expansion never couples cells the stencil does not, so
obstacles and sealed components stay exactly zero.

A score field is the gradient of log u by central differences where both
axis neighbours are free, one-sided where one is, and zero where neither
is.  That choice depends only on the map, so each map's stencil is kept as
flat gather tables (a neighbour index per side and a divisor of 2h, h or 1
per cell and axis), and a level is two gathers, a subtraction and a
division, giving the bits of the per-cell selection (``build_score_field``).
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

from .errors import MapFormatError, ParameterError
from .gridmap import WorldMap, _board_hops, _cells_board, _check_regions, _is_int, _is_point, _is_real, _length
from .gridmap import resolve_goal_regions

DEFAULT_SIGMA_MIN = 0.01
# The ladder's degree grows linearly with the top sigma; 0.7 still spreads the
# top level over every free cell connected to a label's regions on the
# generated maps, which 0.5 does not.
DEFAULT_SIGMA_MAX = 0.7
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


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise ladder and its heat times, all a ladder depends on.

    sigma[i] is the noise scale of diffusion step t = i + 1 (t runs 1..T);
    heat_time = sigma^2 / 2 (free-space Gaussian correspondence).  Both are
    tuples of T floats, whatever sequences they come as: a hashable value.
    A ParameterError names ``T`` unless it is an integer >= 1, a sequence
    of another length, ``sigma`` unless every sigma is finite and > 0, and
    ``heat_time`` unless every heat time is finite and >= 0.
    """

    T: int
    sigma: tuple
    heat_time: tuple

    def __post_init__(self):
        if not (_is_int(self.T) and self.T >= 1):
            raise ParameterError(f"must be an integer >= 1, got {self.T!r}", field="T")
        for name, rule, holds in (("sigma", "> 0", lambda v: 0.0 < v < math.inf),
                                  ("heat_time", ">= 0", lambda v: 0.0 <= v < math.inf)):
            values = tuple(map(float, getattr(self, name)))
            if len(values) != self.T:
                raise ParameterError(f"must hold T={self.T!r} values, got {len(values)}", field=name)
            if not all(map(holds, values)):  # NaN fails every comparison
                raise ParameterError(f"must hold finite values {rule}, got {values!r}", field=name)
            object.__setattr__(self, name, values)

    def sigma_at(self, t: int) -> float:
        if not (_is_int(t) and 1 <= t <= self.T):
            raise ParameterError(f"must be an integer in 1..{self.T}, got {t!r}", field="t")
        return self.sigma[t - 1]


def build_schedule(T: int = 20, sigma_min: float = DEFAULT_SIGMA_MIN,
                   sigma_max: float = DEFAULT_SIGMA_MAX) -> NoiseSchedule:
    """The ladder of ``T`` geometric noise levels from ``sigma_min`` to
    ``sigma_max``.  ``T`` is an integer >= 2 and the sigmas are finite with
    0 < sigma_min < sigma_max; a ParameterError names the field that breaks
    its rule."""
    if not _is_int(T) or T < 2:
        raise ParameterError(f"must be an integer >= 2, got {T!r}", field="T")
    if not (_is_real(sigma_min) and sigma_min > 0):
        raise ParameterError(f"must be a finite number > 0, got {sigma_min!r}", field="sigma_min")
    if not (_is_real(sigma_max) and sigma_max > sigma_min):
        raise ParameterError(f"must be a finite number > sigma_min={sigma_min!r}, got {sigma_max!r}", field="sigma_max")
    t = np.arange(T, dtype=np.float64)
    sigma = sigma_min * (sigma_max / sigma_min) ** (t / (T - 1))
    return NoiseSchedule(T=T, sigma=sigma, heat_time=sigma**2 / 2.0)


def _check_log_floor(log_floor) -> None:
    """A ParameterError naming ``log_floor``, the fraction of a level's peak
    under which its log is flat, unless it is a finite number in (0, 1)."""
    if not (_is_real(log_floor) and 0.0 < log_floor < 1.0):
        raise ParameterError(f"must be a finite number in (0, 1), got {log_floor!r}", field="log_floor")


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

    Both grids are stored as C-contiguous float64 and bool arrays (the given
    array itself when it already is one), each with a flat memoryview of the
    same memory: the sampler reads ``_vector_view[(row * W + col) * 2 + axis]``
    and ``_support_view[row * W + col]`` as Python floats and bools, which
    costs less than numpy indexing.  A memoryview does not pickle, so a
    field pickles and copies as its constructor arguments and rebuilds the
    views.  A ParameterError names ``vectors`` or ``supported`` unless it is
    a numeric array of the map's grid (``supported`` may be None).
    """

    t: int
    vectors: np.ndarray    # (H, W, 2) float64, [..., 0] = d/dx, [..., 1] = d/dy
    map: WorldMap
    supported: Optional[np.ndarray] = None  # (H, W) bool

    def __post_init__(self):
        grid = (self.map.height_cells, self.map.width_cells)
        for name, shape, dtype in (("vectors", (*grid, 2), np.float64), ("supported", grid, bool)):
            value = getattr(self, name)
            if value is None and name == "supported":
                continue
            if getattr(value, "shape", None) != shape or not isinstance(value, np.ndarray):
                raise ParameterError(f"must be the map's {shape} grid, got {getattr(value, 'shape', None)}", field=name)
            if value.dtype.kind not in "biuf":
                raise ParameterError(f"must hold real numbers, got dtype {value.dtype}", field=name)
            object.__setattr__(self, name, np.ascontiguousarray(value, dtype=dtype))
        object.__setattr__(self, "_vector_view", memoryview(self.vectors.reshape(-1)))
        object.__setattr__(self, "_support_view", None if self.supported is None else memoryview(self.supported.reshape(-1)))

    def __reduce__(self):
        return type(self), (self.t, self.vectors, self.map, self.supported)


class _Solver:
    """The stencil of one map, its explicit step and its spectral bound.

    ``ladder`` gives every level of a ladder from one Chebyshev recurrence
    on the stencil, reproducing the levels that explicit steps reach.

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
            raise ParameterError("heat times must be nondecreasing", field="schedule")
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
    """Unit mass split equally across the source regions (goal region instances), uniform
    within each; a region off the map's free cells raises ``WorldMap``'s ParameterError."""
    regions = tuple(regions)
    if not regions:
        raise ParameterError("must hold at least one source region", field="regions")
    _check_regions(regions, worldmap.free)
    u = np.zeros((worldmap.height_cells, worldmap.width_cells), dtype=np.float64)
    share = 1.0 / len(regions)
    for reg in regions:
        per_cell = share / len(reg.cells)
        for col, row in reg.cells:
            u[row, col] += per_cell
    return HeatState(u=u, time=0.0, map=worldmap)


def solve_to_times(regions, worldmap: WorldMap, schedule: NoiseSchedule):
    """The explicit ladder's levels from the source regions' heat at time 0,
    one per schedule heat time (``_Solver.ladder``).

    Each level's cells below CHEB_TOL times its peak, which the expansion
    does not resolve, are set to zero, and the level is renormalised to
    unit mass.  Snapshot times equal schedule.heat_time to float precision.
    The top noise level may be at most the world's diagonal (a top heat
    time of half its square): the expansion's degree grows with it, and
    heat that has spread that far is flat anyway.
    """
    w, h = worldmap.world_size
    top, limit = float(np.max(schedule.heat_time, initial=0.0)), 0.5 * (w * w + h * h)
    if top > limit:
        raise ParameterError(f"must be at most the world diagonal {math.hypot(w, h):.6g} of {worldmap.name!r}: "
                             f"the top heat time {top!r} exceeds {limit!r}", field="sigma_max")
    ops = _Solver(worldmap)
    levels = ops.ladder(init_heat(regions, worldmap).u, schedule.heat_time)
    snapshots = []
    for target, v in zip(schedule.heat_time, levels):
        v[v < CHEB_TOL * v.max()] = 0.0
        v /= v.sum()
        snapshots.append(HeatState(u=v, time=target, map=worldmap))
    return snapshots


@functools.lru_cache(maxsize=1)
def _gradient_tables(worldmap: WorldMap) -> tuple:
    """The gradient stencil of one map as flat gather tables, and its free
    mask: ``(hi, lo, den, free)``.

    For each cell and axis ([..., 0] = x, [..., 1] = y), ``hi`` is the flat
    index of the free east (north) neighbour, else the cell's own; ``lo``
    that of the free west (south) neighbour, else the cell's own; and
    ``den`` is 2h where both neighbours are free and h where one is.  Where
    neither is, or the cell is an obstacle, both indices are H*W, one past
    the grid, where the build keeps a 0.0, and ``den`` is 1.0: such a cell
    gets 0.0 whatever its own log u, -inf under a zero floor included.

    The tables depend only on the map, so they are memoised, read-only, for
    the last map built on: the ladder of every label on it shares them.  One
    map only, as each entry holds its map alive.
    """
    free = worldmap.free
    H, W = free.shape
    n = H * W
    # pad the free mask so out-of-bounds counts as not-free
    fpad = np.zeros((H + 2, W + 2), dtype=bool)
    fpad[1:-1, 1:-1] = free
    cell = np.arange(n).reshape(H, W)
    # intp, as take casts any other index type on every call (a uint16
    # gather took 5x as long at 128x128); a 64x64 map's tables are 196 KiB
    hi, lo = np.empty((H, W, 2), dtype=np.intp), np.empty((H, W, 2), dtype=np.intp)
    den = np.empty((H, W, 2))
    axes = ((fpad[1:-1, 2:], fpad[1:-1, :-2], 1, worldmap.cell_size[0]),
            (fpad[2:, 1:-1], fpad[:-2, 1:-1], W, worldmap.cell_size[1]))
    for axis, (plus, minus, step, h) in enumerate(axes):
        plus, minus = plus & free, minus & free
        own = np.where(plus | minus, cell, n)
        hi[..., axis] = np.where(plus, cell + step, own)
        lo[..., axis] = np.where(minus, cell - step, own)
        den[..., axis] = np.where(plus & minus, 2 * h, np.where(plus | minus, h, 1.0))
    for table in (hi, lo, den, free):
        table.flags.writeable = False  # every build on the map gets the same arrays
    return hi, lo, den, free


def _state_peak(state: HeatState) -> float:
    """The peak of ``state.u``.  A ParameterError names ``state`` unless
    ``u`` is its map's (H, W) grid with no cell below 0 and a finite,
    positive peak."""
    u, grid = state.u, (state.map.height_cells, state.map.width_cells)
    if not isinstance(u, np.ndarray) or u.shape != grid:
        raise ParameterError(f"u must be the map's {grid} grid, got shape {np.shape(u)}", field="state")
    low, peak = float(u.min()), float(u.max())
    if low < 0.0:
        raise ParameterError(f"u must hold no cell below 0, got {low!r}", field="state")
    if not 0.0 < peak < math.inf:
        raise ParameterError(f"carries no finite mass (peak {peak!r})", field="state")
    return peak


def build_score_field(state: HeatState, log_floor: float = DEFAULT_LOG_FLOOR, t: int = 0) -> ScoreField:
    """Finite-difference gradient of log u on free cells.

    Central differences where both axis neighbors are free, one-sided where
    exactly one is, zero where neither.  Obstacle-cell u (exactly zero) is
    never read; obstacle cells get the zero vector.  Vectors longer than
    SCORE_CAP_CELLS / h are scaled onto that length.  ``state.u`` must be
    the map's (H, W) grid of cells >= 0 with a finite, positive peak, else
    a ParameterError names ``state``: ``_state_peak``.

    Each level is a gather on the map's memoised tables (``_gradient_tables``):
    with lu = log(max(u, floor)) and a 0.0 appended past the grid, the
    vectors are (lu[hi] - lu[lo]) / den, and only the cells over the cap are
    rescaled.  These are the bits of the per-cell selection the tables
    encode (``tests/oracles.build_score_field``): IEEE division by a per-cell
    2h or h rounds as division by the scalar does, a cell with no free
    neighbour on an axis gets 0.0 - 0.0 = +0.0, and the cells under the cap
    skip a multiplication by 1.0, which was the identity.
    """
    _check_log_floor(log_floor)
    peak = _state_peak(state)
    worldmap, u = state.map, state.u
    H, W = worldmap.height_cells, worldmap.width_cells
    hi, lo, den, free = _gradient_tables(worldmap)
    floor = log_floor * peak
    n = H * W
    lu = np.empty(n + 1)
    np.maximum(u.ravel(), floor, out=lu[:n])
    np.log(lu[:n], out=lu[:n])
    lu[n] = 0.0
    # every index is in range, so 'clip' only spares take a checked copy
    vectors, below = lu.take(hi, mode="clip"), lu.take(lo, mode="clip")
    np.subtract(vectors, below, out=vectors)
    np.divide(vectors, den, out=vectors)
    cap = SCORE_CAP_CELLS / min(worldmap.cell_size)
    sq = np.multiply(vectors, vectors, out=below)
    norm = np.sqrt(sq[..., 0] + sq[..., 1]).ravel()
    big = np.flatnonzero(norm > cap)
    vectors.reshape(n, 2)[big] *= (cap / norm[big])[:, None]
    supported = free & (u > floor)
    return ScoreField(t=t, vectors=vectors, map=worldmap, supported=supported)


def interpolate(field, p):
    """Bilinear interpolation of score vectors at continuous points.

    ``p`` is a list of N [x, y] pairs of floats and ``field`` a sequence of
    N ScoreFields on one map, one per point; the result is a new list of N
    [sx, sy] lists, with no array made.  A caller holding an (N, 2) array
    passes ``arr.tolist()`` and reads the result with ``np.array(result)``.
    Queries outside the cell-center lattice hull (but inside the map) clamp
    to the hull.  Queries outside the map (or NaN) and malformed points
    raise a ParameterError naming ``p``, and a field count
    other than the point count, no field at all, or a field that is not a
    ScoreField, one naming ``field``.

    Each point is a loop over Python floats, which costs less than numpy
    calls on arrays this small: its eight corner floats are read by index
    from the field's flat view of ``vectors`` (``ScoreField._vector_view``).
    Per component the result is
    v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy, each
    product and sum taken left to right; on a map one cell wide or high the
    missing neighbour repeats the first.
    """
    n = _length(p, "p")
    if _length(field, "field") != n:
        raise ParameterError(f"holds {len(field)} fields for {n} points", field="field")
    if not n:
        raise ParameterError("must hold at least one field", field="field")
    out = []
    try:
        worldmap = field[0].map
        w, h = worldmap.world_size
        hx, hy = worldmap.cell_size
        W, H = worldmap.width_cells, worldmap.height_cells
        # lattice coordinates are clamped to the cell-center hull; the lower corner
        # (column, row) stops one cell short of the far edge, and conditional
        # expressions stand in for min and max, which cost more here
        last_x, last_y = W - 1.0, H - 1.0
        top_i, top_j = max(W - 2, 0), max(H - 2, 0)
        # flat offsets of the column and row neighbours; on a map one cell
        # wide or high the neighbour is the first cell itself
        east = 2 if W > 1 else 0
        north = 2 * W if H > 1 else 0
        for f, (x, y) in zip(field, p):
            if not (0.0 <= x < w and 0.0 <= y < h):
                raise ParameterError("holds a point outside the world rectangle", field="p")
            gx = x / hx - 0.5
            gx = 0.0 if gx < 0.0 else last_x if gx > last_x else gx
            gy = y / hy - 0.5
            gy = 0.0 if gy < 0.0 else last_y if gy > last_y else gy
            i, j = int(gx), int(gy)
            i, j = (i if i < top_i else top_i), (j if j < top_j else top_j)
            fx = gx - i
            fy = gy - j
            # the 2x2 block [row j0/j1][column i0/i1] at flat offsets k00..k11
            v = f._vector_view
            k00 = (j * W + i) * 2
            k01 = k00 + east
            k10 = k00 + north
            k11 = k10 + east
            ex, ey = 1 - fx, 1 - fy
            sx = v[k00] * ex * ey + v[k01] * fx * ey
            sx += v[k10] * ex * fy
            sx += v[k11] * fx * fy
            sy = v[k00 + 1] * ex * ey + v[k01 + 1] * fx * ey
            sy += v[k10 + 1] * ex * fy
            sy += v[k11 + 1] * fx * fy
            out.append([sx, sy])
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        if all(map(_is_point, p)):
            raise ParameterError(f"must hold ScoreFields with (H, W, 2) vectors: {exc}", field="field") from exc
        raise ParameterError(f"must hold [x, y] pairs of numbers: {exc}", field="p") from exc
    return out


def sample_heat(state: HeatState, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` points (an integer >= 0) from the heat distribution:
    categorical over cells by mass, then uniform jitter within the chosen
    cell.  Obstacle cells hold zero mass and are never drawn.  The state is
    checked as ``build_score_field`` checks it (``_state_peak``)."""
    if not _is_int(n) or n < 0:
        raise ParameterError(f"must be an integer >= 0, got {n!r}", field="n")
    _state_peak(state)
    u = state.u
    p = (u / float(u.sum())).ravel()
    idx = rng.choice(p.size, size=n, p=p)
    W = state.map.width_cells
    cols = idx % W
    rows = idx // W
    hx, hy = state.map.cell_size
    xs = (cols + rng.random(n)) * hx
    ys = (rows + rng.random(n)) * hy
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
    _check_log_floor(log_floor)
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

    def _memo(self, store: dict, key, build):
        """``store[key]``, set to ``build()`` on a miss; the first insert wins."""
        hit = store.get(key)
        if hit is None:
            value = build()
            with self._lock:
                hit = store.setdefault(key, value)
        return hit

    def fields(self, worldmap: WorldMap, label: str, schedule: NoiseSchedule,
               log_floor: float = DEFAULT_LOG_FLOOR) -> dict:
        _check_log_floor(log_floor)
        key = (worldmap.content_hash(), label, schedule, float(log_floor))
        return self._memo(self._store, key, lambda: score_fields(
            worldmap, resolve_goal_regions(label, worldmap), schedule, log_floor))

    def goal_hops(self, worldmap: WorldMap, label: str) -> np.ndarray:
        """4-connected hop count from every cell to the nearest cell of the
        label's regions (-1 where unreached), computed once per (map, label).
        The seeds are the cells ``WorldMap`` checked, so none is checked again."""
        key = (worldmap.content_hash(), label)
        return self._memo(self._hops, key, lambda: _board_hops(worldmap.free, _cells_board(
            worldmap.free, (cell for reg in resolve_goal_regions(label, worldmap) for cell in reg.cells))))


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
            "sigma": list(schedule.sigma),
            "heat_time": list(schedule.heat_time),
        }
    return header


def dump_field_bytes(field: ScoreField, schedule: NoiseSchedule | None = None) -> bytes:
    """Binary dump: magic, uint32 header length, JSON header, float32 payload."""
    header = json.dumps(_field_header(field, schedule), separators=(",", ":")).encode("utf-8")
    payload = field.vectors.astype("<f4").tobytes(order="C")
    return _FIELD_MAGIC + struct.pack("<I", len(header)) + header + payload


def load_field_bytes(data: bytes, worldmap: WorldMap) -> ScoreField:
    """Parse a dump made for ``worldmap``: the binary variant
    (``dump_field_bytes``), or the JSON one (``dump_field_json``), which
    starts with ``{``.  Both go through the same header, shape, hash,
    payload and mask checks; errors name the bad field."""
    if data[:1] == b"{":
        header = _json_header(data)
        payload = _b64("payload", header.get("data_b64"))
    elif data[:4] != _FIELD_MAGIC:
        raise MapFormatError("magic", f"expected {_FIELD_MAGIC!r} or a JSON dump, got {bytes(data[:4])!r}")
    elif len(data) < 8:
        raise MapFormatError("header_length", "dump ends before the header length")
    else:
        (hlen,) = struct.unpack("<I", data[4:8])
        if len(data) < 8 + hlen:
            raise MapFormatError("header_length", f"{hlen} header bytes announced, {len(data) - 8} present")
        header, payload = _json_header(data[8:8 + hlen]), data[8 + hlen:]
    shape = [worldmap.height_cells, worldmap.width_cells, 2]
    if header.get("shape") != shape:
        raise MapFormatError("shape", f"expected {shape} for this map, got {header.get('shape')!r}")
    if header.get("map_hash") != worldmap.content_hash():
        raise MapFormatError("map_hash", "dump was made for a different map")
    t = header.get("t")
    if not isinstance(t, int) or isinstance(t, bool):
        raise MapFormatError("t", "expected an integer")
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
    raw = _b64("supported", packed)
    cells = shape[0] * shape[1]
    if len(raw) != -(-cells // 8):
        raise MapFormatError("supported", f"expected {-(-cells // 8)} packed bytes for {cells} cells, got {len(raw)}")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=cells).astype(bool).reshape(shape)


def _json_header(raw: bytes) -> dict:
    """The JSON object ``raw`` holds; a MapFormatError names ``header`` otherwise."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise MapFormatError("header", f"invalid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MapFormatError("header", "expected a JSON object")
    return header


def _b64(field: str, text) -> bytes:
    """The bytes of the base64 string ``text``; a MapFormatError names ``field`` otherwise."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise MapFormatError(field, f"invalid base64: {exc}") from exc


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
        raise ParameterError(f"must be 'bin' or 'json', got {fmt!r}", field="fmt")
