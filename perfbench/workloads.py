"""The three benchmark workloads: inputs built from a seed, a measured loop
over heatplan's public API, and the checks on what it returns.

Every workload is a closed loop driven by one process: the next plan (or
suite) starts when the previous one has returned.  ``suite_fanout`` is the
only one that starts a process pool, of at most ``min(2, nproc)`` workers.
A speed probe (``speed.py``) times a reference kernel between units of work,
and every timing is kept in units of that kernel's local time.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import heatplan as hp
from heatplan.planner import PlannerConfig, result_to_json
from speed import NoProbe, local, steady

# bound at import, so the checks never run through a tracing wrapper
_validate_plan = hp.validate_plan

TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


@dataclass(frozen=True)
class Size:
    """How much work one run does.  ``FULL`` is the benchmark; ``TINY`` is
    for smoke tests.  Cycles are kept short enough that a 30-second run
    repeats every input at least twice."""

    cells: int = 64               # map side
    cold_per_family: int = 4      # cold_maps N=3 scenarios per family
    cold_ood: int = 8             # cold_maps sealed-duplicate scenarios
    cold_variants: int = 4        # cold_maps maps per family
    warm_scenarios: int = 30      # warm_team N=9 scenarios
    warm_variants: int = 2        # warm_team maps, 9 ladders each
    suite_per_family: int = 6     # suite_fanout scenarios per family, one map each
    T: int = 20
    K: int = 16
    setup_repeats: int = 5        # setup_s is the median of this many set-ups,
    warm_setup_repeats: int = 3   # fewer where a set-up solves 18 ladders

    def config(self) -> PlannerConfig:
        return PlannerConfig(T=self.T, K=self.K)


FULL = Size()
TINY = Size(cold_per_family=1, cold_ood=1, cold_variants=1, warm_scenarios=2, warm_variants=1,
            suite_per_family=1, T=10, K=6, setup_repeats=1, warm_setup_repeats=1)


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def tail(values, run=None):
    """(value, percentile) of the highest percentile with TAIL_BEYOND of
    ``run`` samples above it, taken over ``values`` (nearest rank).

    ``run`` is the number of plans run, of which ``values`` are the ones
    timed at a steady host speed; it defaults to ``len(values)``.  Fixing the
    percentile by the plans run keeps it the same when the share timed
    varies, which matters where plan times have two modes (suite_fanout's
    cold-cache solves and cache hits).  With fewer than 2 * TAIL_BEYOND + 1
    samples the percentile would lie at or below the median, so the maximum
    is reported instead."""
    ordered = sorted(values)
    run = len(ordered) if run is None else run
    rank = run - TAIL_BEYOND
    if rank <= run // 2:
        rank = run
    return ordered[-(-rank * len(ordered) // run) - 1], 100.0 * rank / run


# ---------------------------------------------------------------------------
# checks


def min_pairwise_distance(trajectories) -> float:
    """Smallest distance between any two robots at the same micro-step."""
    stacked = np.stack([tr.micro_steps for tr in trajectories])  # (N, M, 2)
    n = len(stacked)
    diff = stacked[:, None] - stacked[None, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    iu = np.triu_indices(n, 1)
    return float(dist[iu].min())


def check_plan(scenario, result, config: PlannerConfig) -> list:
    """Re-validate a returned plan; returns the problems found."""
    problems = []
    cfg = config.with_overrides(scenario.config)
    name = scenario.map.name
    if not result.timed_out:
        static_v, inter_v, goals = _validate_plan(result.trajectories, scenario, cfg)
        again = all(goals) and not static_v and not inter_v
        if again != result.success:
            problems.append(f"{name} seed {scenario.seed}: validator says {again}, result says {result.success}")
    if result.success and len(result.trajectories) > 1:
        dmin = min_pairwise_distance(result.trajectories)
        if not dmin > cfg.d_safe:
            problems.append(f"{name} seed {scenario.seed}: success with robots {dmin:.4f} apart (d_safe {cfg.d_safe})")
    return problems


def check_record(record, d_safe: float) -> list:
    """Consistency of one run_suite record; returns the problems found."""
    problems = []
    where = f"{record['map']} seed {record['scenario_seed']}"
    expect = (
        not record["timed_out"]
        and all(record["goal_reached"])
        and record["static_violations"] == 0
        and record["inter_robot_violations"] == 0
    )
    if expect != record["success"]:
        problems.append(f"{where}: record fields imply success={expect}, record says {record['success']}")
    if json.loads(record["result_json"])["success"] != record["success"]:
        problems.append(f"{where}: result JSON and record disagree on success")
    clearance = record["min_clearance"]
    if record["success"] and clearance is not None and not clearance > d_safe:
        problems.append(f"{where}: success with min clearance {clearance:.4f} (d_safe {d_safe})")
    return problems


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_digest(result) -> str:
    return _sha(result_to_json(result, include_timing=False, include_micro=True))


def suite_digest(records) -> str:
    text = hp.write_records(records, include_timing=False)
    return _sha(text + "".join(r["result_json"] for r in records))


# ---------------------------------------------------------------------------
# one run's tally


@dataclass
class Tally:
    costs: list = field(default_factory=list)       # every plan's cost, in run order
    steady_flags: list = field(default_factory=list)  # whether the host held its speed across each
    call_costs: list = field(default_factory=list)  # suite_fanout: (run_suite wall cost per scenario, steady)
    attempted: int = 0
    failed: int = 0
    success: dict = field(default_factory=dict)     # scenario index -> first outcome
    digests: dict = field(default_factory=dict)     # scenario index or "suite" -> digest
    problems: list = field(default_factory=list)

    def note_time(self, seconds, before, after):
        """A plan time, kept as a cost: seconds over the reference kernel's
        local time (see ``speed.py``), given the samples on either side."""
        self.costs.append(seconds / local(before, after))
        self.steady_flags.append(steady(before, after))

    def note_digest(self, key, digest):
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"result digest of {key} changed between repeats")

    def run_digest(self) -> str:
        return _sha("".join(f"{k}:{v}\n" for k, v in sorted(self.digests.items(), key=str)))


def steady_only(costs, flags) -> list:
    """The costs taken while the host held its speed, or all of them when
    there are none such."""
    kept = [c for c, ok in zip(costs, flags) if ok]
    return kept or list(costs)


NO_PROBE = NoProbe()


def _no_pause() -> float:
    return 0.0


def _no_lap():
    pass


def _plan_loop(scenarios, make_cache, config, seconds, min_plans, between, probe) -> Tally:
    tally = Tally()
    t_end = time.perf_counter() + seconds
    i = 0
    before = probe.sample()
    while i < min_plans or time.perf_counter() < t_end:
        idx = i % len(scenarios)
        if idx == 0 and i:
            paused = between()
            if paused:
                t_end += paused
                before = probe.sample()
        scenario = scenarios[idx]
        i += 1
        tally.attempted += 1
        cache = make_cache()
        t0 = time.perf_counter()
        try:
            result = hp.plan(scenario, config, cache=cache)
        except Exception:  # the benchmark keeps running; the failure is counted
            traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            tally.success.setdefault(idx, False)
            before = probe.sample()
            continue
        seconds_taken = time.perf_counter() - t0
        after = probe.sample()
        tally.note_time(seconds_taken, before, after)
        before = after
        if result.timed_out:
            tally.failed += 1
        tally.success.setdefault(idx, result.success)
        tally.problems.extend(check_plan(scenario, result, config))
        tally.note_digest(idx, plan_digest(result))
    return tally


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def setup(self, seed: int, size: Size, lap=_no_lap):
        """Build the inputs from the seed; timed as setup_s.  ``lap`` is
        called between stages of a set-up that takes seconds."""
        raise NotImplementedError

    def setup_repeats(self, size: Size) -> int:
        return size.setup_repeats

    def run(self, inputs, size: Size, seconds: float, min_units: int, between=_no_pause,
            probe=NO_PROBE) -> Tally:
        """Measure until ``seconds`` have passed and ``min_units`` plans (or
        suite calls) are done.  ``between`` runs after each full cycle; the
        seconds it returns are not counted as measured time.  ``probe``
        samples the host's speed around every plan (or suite call)."""
        raise NotImplementedError

    def cycle(self, inputs) -> int:
        """Units that cover every input once: one traced pass."""
        return len(inputs[0])

    def measured_minimum(self, inputs) -> int:
        """Units a measured run does at least: every input twice, so each
        has a repeat to check."""
        return 2 * self.cycle(inputs)


class ColdMaps(Workload):
    name = "cold_maps"

    def setup(self, seed, size, lap=_no_lap):
        params = {"cells": size.cells}
        scenarios = hp.generate_suite(hp.SuiteSpec(
            robot_counts=(3,), scenarios_per_config=size.cold_per_family,
            map_variants=size.cold_variants, base_seed=seed, map_params=params))
        scenarios += hp.generate_suite(hp.SuiteSpec(
            families=("drop_region",), robot_counts=(3,), scenarios_per_config=size.cold_ood,
            map_variants=size.cold_variants, base_seed=seed, ood=True, map_params=params))
        return (scenarios,)

    def run(self, inputs, size, seconds, min_units, between=_no_pause, probe=NO_PROBE):
        return _plan_loop(inputs[0], hp.FieldCache, size.config(), seconds, min_units, between, probe)


class WarmTeam(Workload):
    name = "warm_team"

    def setup(self, seed, size, lap=_no_lap):
        config = size.config()
        scenarios = hp.generate_suite(hp.SuiteSpec(
            families=("drop_region",), robot_counts=(9,), scenarios_per_config=size.warm_scenarios,
            map_variants=size.warm_variants, base_seed=seed, map_params={"cells": size.cells}))
        cache = hp.FieldCache()
        schedule = config.schedule()
        maps = {sc.map.name: sc.map for sc in scenarios}
        for worldmap in maps.values():
            for label in worldmap.labels():
                lap()
                cache.fields(worldmap, label, schedule, config.log_floor)
        return scenarios, cache

    def setup_repeats(self, size):
        return size.warm_setup_repeats

    def run(self, inputs, size, seconds, min_units, between=_no_pause, probe=NO_PROBE):
        scenarios, cache = inputs
        return _plan_loop(scenarios, lambda: cache, size.config(), seconds, min_units, between, probe)


class SuiteFanout(Workload):
    name = "suite_fanout"

    def setup(self, seed, size, lap=_no_lap):
        return (hp.generate_suite(hp.SuiteSpec(
            robot_counts=(3,), scenarios_per_config=size.suite_per_family, map_variants=1,
            base_seed=seed, map_params={"cells": size.cells})),)

    def cycle(self, inputs):
        return 1

    def run(self, inputs, size, seconds, min_units, between=_no_pause, probe=NO_PROBE):
        (scenarios,) = inputs
        config = size.config()
        d_safe = [config.with_overrides(sc.config).d_safe for sc in scenarios]
        tally = Tally()
        t_end = time.perf_counter() + seconds
        calls = 0
        while calls < min_units or time.perf_counter() < t_end:
            if calls:
                t_end += between()
            calls += 1
            tally.attempted += len(scenarios)
            before = probe.sample(every_cpu=True)
            t0 = time.perf_counter()
            try:
                report = hp.run_suite(scenarios, config, workers=pool_workers(), include_result_json=True)
            except Exception:  # the benchmark keeps running; the failure is counted
                traceback.print_exc(file=sys.stderr)
                tally.failed += len(scenarios)
                continue
            wall = time.perf_counter() - t0
            after = probe.sample(every_cpu=True)
            tally.call_costs.append((wall / local(before, after) / len(scenarios), steady(before, after)))
            for idx, (rec, ds) in enumerate(zip(report.records, d_safe)):
                tally.note_time(rec["planning_time_s"], before, after)
                tally.failed += int(rec["timed_out"])
                tally.success.setdefault(idx, rec["success"])
                tally.problems.extend(check_record(rec, ds))
            tally.note_digest("suite", suite_digest(report.records))
        return tally


WORKLOADS = {w.name: w for w in (ColdMaps(), WarmTeam(), SuiteFanout())}
