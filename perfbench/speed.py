"""Host speed probe: a fixed reference kernel timed next to every measured
unit of work, so that timings can be corrected for the host's speed at the
moment they were taken.

On a small shared machine a vCPU's speed switches between levels about 1.7x
apart, in stretches from seconds to over a minute.  A plan's time follows
the reference kernel's time taken just before and after it: with a first,
sampler-only version of the kernel, over a few minutes of warm N=9 plans,
the two correlated at about 0.9, and their ratio held within about 2% across
30-second windows where the plain median of plan times spread by about 33%.  ``reference_seconds`` turns such a ratio back into
seconds at a fixed reference speed.

The kernel does not import heatplan, so no change to the package moves it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The kernel's time at the fast level of the 2-vCPU Xeon (cpu_model "Intel(R)
# Xeon(R) Processor", L2 2048K) the baseline was measured on.  Reported
# timings are seconds at this speed.  A run's own fastest sample is not used
# instead: it depends on whether the run reached the fast level, and it moved
# the reported medians by about 9% over five runs.
REFERENCE_S = 0.013

# Only work whose surrounding kernel samples differ by at most this share is
# timed.  In the same trial of warm N=9 plans, the corrected p91 plan time
# spread by 17% across 30-second windows with every plan kept and by 1.5%
# with this filter, which kept 80% of the plans; the median's spread went
# from 2.2% to 1.4%.
STEADY = 0.2

_RNG = np.random.default_rng(20_240_601)
_GRID = _RNG.random((64, 64, 2))
_POINTS = _RNG.random((9, 2)) * 62.0


def reference_kernel() -> float:
    """About 13 ms of the planner's two kinds of work on a 2-vCPU Xeon, in
    equal parts: bilinear lookups and small-array updates for nine points in
    a Python loop, as in the sampler, and in-place flux updates of a 64x64
    grid, as in the heat solver."""
    points = _POINTS.copy()
    acc = 0.0
    for _ in range(75):
        for i in range(len(points)):
            x, y = points[i]
            ix, iy = int(x), int(y)
            fx, fy = x - ix, y - iy
            v = ((1 - fx) * (1 - fy) * _GRID[ix, iy] + fx * (1 - fy) * _GRID[ix + 1, iy]
                 + (1 - fx) * fy * _GRID[ix, iy + 1] + fx * fy * _GRID[ix + 1, iy + 1])
            points[i] = np.clip(points[i] + 0.01 * v, 0.0, 62.0)
        diff = points[:, None] - points[None, :]
        acc += float(np.sqrt((diff**2).sum(axis=-1)).sum())
    u = _GRID[..., 0].copy()
    flux_x = np.empty((64, 63))
    flux_y = np.empty((63, 64))
    for _ in range(250):
        np.subtract(u[:, 1:], u[:, :-1], out=flux_x)
        flux_x *= 0.1
        np.subtract(u[1:, :], u[:-1, :], out=flux_y)
        flux_y *= 0.1
        u[:, :-1] += flux_x
        u[:, 1:] -= flux_x
        u[:-1, :] += flux_y
        u[1:, :] -= flux_y
    return acc + float(u.sum())


def _time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel on demand and keeps every sample of a run.

    ``sample()`` returns the kernel's time on the CPU the process runs on.
    ``sample(every_cpu=True)`` times it on each CPU the process may use
    (at most ``max_cpus``), pinning the process to one CPU at a time and
    restoring its affinity afterwards, and returns the per-CPU times; it is
    for work spread over a process pool."""

    def __init__(self, max_cpus: int = 2):
        self.samples = []
        self.max_cpus = max_cpus

    def sample(self, every_cpu: bool = False):
        if not every_cpu:
            self.samples.append(_time_kernel())
            return self.samples[-1]
        allowed = sorted(os.sched_getaffinity(0))
        times = []
        try:
            for cpu in allowed[: self.max_cpus]:
                os.sched_setaffinity(0, {cpu})
                times.append(_time_kernel())
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples += times
        return times


def reference_seconds(cost: float) -> float:
    """A cost in kernel units, as seconds at the reference speed."""
    return cost * REFERENCE_S


class Laps:
    """The cost of work timed in laps: each lap's wall time over the local
    kernel time around it, so a long unit of work is corrected piece by
    piece when the host's speed changes in the middle of it.  The probe's
    samples are not part of any lap."""

    def __init__(self, probe):
        self.probe = probe
        self.cost = 0.0
        self._before = probe.sample()
        self._t0 = time.perf_counter()

    def lap(self):
        elapsed = time.perf_counter() - self._t0
        after = self.probe.sample()
        self.cost += elapsed / local(self._before, after)
        self._before = after
        self._t0 = time.perf_counter()


def steady(before, after) -> bool:
    """Whether the host held one speed across a unit of work: the kernel
    samples on either side of it, on every CPU sampled, differ by at most
    ``STEADY``.  The test reads only the kernel, never the work's own time,
    so it cannot hide a slower program."""
    pairs = zip(before, after) if isinstance(before, list) else [(before, after)]
    return all(max(b, a) <= (1 + STEADY) * min(b, a) for b, a in pairs)


def local(before, after) -> float:
    """The kernel time that stands for the host's speed over a unit of work
    timed between two samples: the faster of the two, averaged over CPUs
    when the samples are per CPU."""
    if isinstance(before, list):
        return sum(min(b, a) for b, a in zip(before, after)) / len(before)
    return min(before, after)


class NoProbe:
    """Leaves timings in plain seconds: every sample reads 1."""

    samples = ()

    def sample(self, every_cpu: bool = False):
        return 1.0
