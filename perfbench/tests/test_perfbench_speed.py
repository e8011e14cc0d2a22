"""Host speed correction: the probe, the local kernel time and the costs."""

import os

import pytest

import speed
from speed import REFERENCE_S, Laps, NoProbe, SpeedProbe, local, reference_seconds, steady
from workloads import Tally, steady_only


def test_local_kernel_time_is_the_faster_sample_averaged_over_cpus():
    assert local(0.03, 0.02) == 0.02
    assert local([0.02, 0.05], [0.03, 0.04]) == pytest.approx(0.03)


def test_probe_restores_affinity_and_keeps_every_sample():
    allowed = os.sched_getaffinity(0)
    probe = SpeedProbe(max_cpus=2)
    per_cpu = probe.sample(every_cpu=True)
    assert os.sched_getaffinity(0) == allowed
    assert 1 <= len(per_cpu) <= min(2, len(allowed))
    one = probe.sample()
    assert probe.samples == per_cpu + [one]
    assert min(probe.samples) > 0


def test_laps_add_up_each_lap_over_its_local_kernel_time(monkeypatch):
    class Fixed:
        readings = iter([0.02, 0.01, 0.04])

        def sample(self, every_cpu=False):
            return next(self.readings)

    clock = iter([0.0, 0.5, 0.6, 1.6, 1.7])  # laps of 0.5 s and 1.0 s
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    laps = Laps(Fixed())
    laps.lap()  # 0.5 s over min(0.02, 0.01)
    laps.lap()  # 1.0 s over min(0.01, 0.04)
    assert laps.cost == pytest.approx(50.0 + 100.0)
    assert reference_seconds(laps.cost) == pytest.approx(150.0 * REFERENCE_S)


def test_plan_costs_are_in_kernel_units_and_only_steady_ones_are_timed():
    tally = Tally()
    tally.note_time(0.4, 0.02, 0.021)   # cost 20, steady
    tally.note_time(0.6, 0.03, 0.045)   # cost 20, speed changed by 50%
    tally.note_time(0.1, 0.011, 0.01)   # cost 10, steady
    assert tally.costs == pytest.approx([20.0, 20.0, 10.0])
    assert tally.steady_flags == [True, False, True]
    assert steady_only(tally.costs, tally.steady_flags) == pytest.approx([20.0, 10.0])
    assert steady_only([5.0], [False]) == [5.0]  # none steady: all are kept


def test_steady_needs_every_cpu_to_hold_its_speed():
    assert steady(0.010, 0.012)
    assert not steady(0.010, 0.0125)
    assert steady([0.010, 0.020], [0.011, 0.019])
    assert not steady([0.010, 0.020], [0.011, 0.030])


def test_without_a_probe_costs_are_seconds():
    probe = NoProbe()
    tally = Tally()
    tally.note_time(0.25, probe.sample(), probe.sample())
    assert tally.costs == [0.25] and tally.steady_flags == [True]
