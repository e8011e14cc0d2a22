"""heatplan benchmark: one workload (or all) against the public API.

    python3 perfbench/run.py --workload cold_maps --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures with tracing off and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes over the
same inputs and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the checkout has no heatplan source.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a seed kept out of development; a claimed gain is re-checked on it
HELDOUT_SEED = 7_340_033

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_seed(text: str) -> int:
    if text == "heldout":
        return HELDOUT_SEED
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="cold_maps, warm_team, suite_fanout or all (default)")
    ap.add_argument("--seed", type=parse_seed, default=1,
                    help="workload seed, or 'heldout' for the held-out seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _commit():
    """HEAD's commit, read from .git without starting git, so that no child
    process enters the peak_rss_mb of pool children."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heatplan").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, workload) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": args.seed,
        "heldout": args.seed == HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "threads": {k: os.environ.get(k) for k in _THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measured (untraced) run


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, seed, seconds, size):
    from speed import REFERENCE_S, Laps, SpeedProbe, reference_seconds
    from workloads import pool_workers, steady_only, tail

    probe = SpeedProbe(max_cpus=pool_workers())
    setup_costs = []

    def timed_setup():
        t0 = time.perf_counter()
        laps = Laps(probe)
        inputs = wl.setup(seed, size, laps.lap)
        laps.lap()
        setup_costs.append(laps.cost)
        return inputs, time.perf_counter() - t0

    def between():
        """One more set-up between cycles, so the set-ups of a run are
        spread over it like the plans; its inputs are dropped."""
        if len(setup_costs) >= wl.setup_repeats(size):
            return 0.0
        return timed_setup()[1]

    inputs, _ = timed_setup()
    # one untimed unit first: the process's first plan, or its first pool
    # fork, pays one-off costs that took up to 1 s in suite_fanout
    wl.run(inputs, size, 0.0, 1)
    tally = wl.run(inputs, size, seconds, wl.measured_minimum(inputs), between, probe)
    while len(setup_costs) < wl.setup_repeats(size):
        between()
    lines = [f"workload {wl.name} seed {seed}",
             f"  timings are seconds at the reference speed, where the speed kernel takes "
             f"{REFERENCE_S * 1e3:g} ms; in this run it took {min(probe.samples) * 1e3:.2f} ms at the "
             f"fastest and {statistics.median(probe.samples) * 1e3:.2f} ms in the median "
             f"of {len(probe.samples)} samples"]
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<18} {value:>14.6f} {unit:<5} {note}")

    put("setup_s", reference_seconds(statistics.median(setup_costs)), "s",
        f"median of {len(setup_costs)} set-ups spread over the run")
    times = [reference_seconds(c) for c in steady_only(tally.costs, tally.steady_flags)]
    if times:
        put("plan_s.p50", statistics.median(times), "s",
            f"median of {len(times)} plans timed at a steady host speed, of {len(tally.costs)}")
        run = len(tally.costs)
        value, pct = tail(times, run)
        put("plan_s.tail", value, "s",
            f"p{pct:.1f} of the same plans, where {run - round(pct * run / 100)} of the {run} plans run lie beyond it")
        if tally.call_costs:
            calls = steady_only(*zip(*tally.call_costs))
            put("scenarios_per_s", 1 / reference_seconds(statistics.median(calls)), "1/s",
                f"median of {len(calls)} run_suite calls on {pool_workers()} workers "
                f"timed at a steady host speed, of {len(tally.call_costs)}")
        else:
            put("scenarios_per_s", len(times) / sum(times), "1/s", "plans over the sum of their times")
    else:
        tally.problems.append("no plan completed")
    outcomes = list(tally.success.values())
    put("success_rate", sum(outcomes) / len(outcomes), "ratio",
        f"{sum(outcomes)} of {len(outcomes)} distinct scenarios")
    put("peak_rss_mb", peak_rss_mb(), "MB", "this process + largest pool child")
    lines.append(f"  {'error_rate':<18} {tally.failed / tally.attempted:>14.6f} ratio "
                 f"{tally.failed} of {tally.attempted} plans raised or timed out")
    lines.append(f"  digest {tally.run_digest()}")
    return tally, metrics, lines


# ---------------------------------------------------------------------------
# traced run


def trace(wl, seed, seconds, size):
    """Alternate untraced and traced passes (set-up plus every input once)
    until ``seconds`` have passed; derive the per-layer metrics."""
    from layertrace import Tracer, layer_metrics

    spool = Path(tempfile.mkdtemp(prefix=".spool-", dir=HERE))
    walls = {False: [], True: []}
    spans, absent, spooled, resident = [], set(), 0, 0
    digests, problems, attempted, failed = set(), [], 0, 0
    t_end = time.perf_counter() + seconds
    passes = 0
    try:
        while passes == 0 or time.perf_counter() < t_end:
            for traced in ((False, True) if passes % 2 == 0 else (True, False)):
                tracer = Tracer(spool) if traced else contextlib.nullcontext()
                t0 = time.perf_counter()
                with tracer:
                    if traced:
                        tracer.pass_no = passes
                    inputs = wl.setup(seed, size)
                    tally = wl.run(inputs, size, 0.0, wl.cycle(inputs))
                walls[traced].append(time.perf_counter() - t0)
                inputs = None
                if traced:
                    spans += tracer.spans
                    absent |= tracer.absent
                    spooled += tracer.spooled
                    resident = max(resident, sum(tracer.resident_peak.values()))
                digests.add(tally.run_digest())
                problems += tally.problems
                attempted += tally.attempted
                failed += tally.failed
            passes += 1
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    if len(digests) != 1:
        problems.append("result digests differ between traced and untraced passes")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    metrics, gone = layer_metrics(spans, passes, resident, overhead, absent, spooled)
    lines = [f"workload {wl.name} seed {seed}: traced, {passes} untraced + {passes} traced passes"]
    for name, m in metrics.items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  absent: {', '.join(gone) if gone else 'none'}")
    lines.append(f"  digest {min(digests)}")
    return attempted, failed, problems, metrics, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    if not (ROOT / "src" / "heatplan" / "__init__.py").is_file():
        print(f"no heatplan source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    size = workloads.TINY if args.tiny else workloads.FULL
    status = 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        print("env " + json.dumps(environment(args, name), sort_keys=True), flush=True)
        if args.trace:
            attempted, failed, problems, metrics, lines = trace(wl, args.seed, args.seconds, size)
        else:
            tally, metrics, lines = measure(wl, args.seed, args.seconds, size)
            attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        print("\n".join(lines))
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        correct = not problems
        status = status or (0 if correct else 1)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
