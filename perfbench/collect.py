"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 30 --out summary.json

Runs ``run.py`` once per (seed, workload), cycling through the workloads for
each seed, then one traced run per workload on the first seed.  For each
workload and metric the summary holds the median, the quartiles and the
spread (interquartile distance over the median), which is what a regression
bound is compared with.  ``perfbench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold_maps", "warm_team", "suite_fanout")


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    digest = next(line.split()[-1] for line in lines if line.strip().startswith("digest "))
    return {"workload": workload, "seed": seed, "trace": trace, "env": env, "digest": digest,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "units": {k: m["unit"] for k, m in result["metrics"].items()}}


def summarise(runs) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for name, unit in mine[0]["units"].items():
            values = [r["metrics"][name] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            out[workload][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="'1-10' or '1,4,7'")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, help="write the summary JSON here")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = []
    for seed in args.seeds:
        for workload in workloads:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    traced = [run_once(w, args.seeds[0], args.seconds, 1) for w in workloads]
    summary = {
        "env": {k: v for k, v in runs[0]["env"].items() if k not in ("workload", "seed", "trace")},
        "seeds": args.seeds,
        "seconds": args.seconds,
        "end_to_end": summarise(runs),
        "per_layer": {r["workload"]: r["metrics"] for r in traced},
        "digests": {w: {str(r["seed"]): r["digest"] for r in runs if r["workload"] == w} for w in workloads},
        "runs": [{k: r[k] for k in ("workload", "seed", "attempted", "failed", "metrics")} for r in runs],
    }
    for workload, metrics in summary["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload:<13} {name:<16} median {s['median']:.6g} {s['unit']:<5} spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
