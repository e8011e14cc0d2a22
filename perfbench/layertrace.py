"""In-memory span tracing of heatplan's layer entry points, and the per-layer
metrics derived from the spans.

The wrapped functions are module attributes that heatplan looks up as globals
at call time, so replacing the attribute traces every call without touching
the package source.  Spans live in memory; a forked pool worker inherits the
wrappers and writes its spans to a spool directory when it exits, and the
parent reads them back once the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import weakref
from multiprocessing import util as mp_util
from pathlib import Path

# span tuple layout
SID, PARENT, NAME, START, END, PLAN, PASS, TAG = range(8)

_PID_STRIDE = 10**9  # span id = pid * stride + per-process counter


def ladder_nbytes(ladder) -> int:
    """Bytes held by one {t: ScoreField} ladder's arrays."""
    total = 0
    for field in ladder.values():
        total += field.vectors.nbytes
        if field.supported is not None:
            total += field.supported.nbytes
    return total


def _solve_key(args, kwargs):
    worldmap, regions = args[0], args[1]
    return [worldmap.content_hash(), regions[0].label]


def _workers_arg(args, kwargs):
    return int(kwargs.get("workers", args[2] if len(args) > 2 else 1))


def default_targets():
    """(span name, owner object, attribute, tag function) for every wrapped
    entry point.  ``plan`` and ``generate_suite`` are wrapped both where the
    benchmark calls them (the package namespace) and where heatplan itself
    looks them up."""
    import heatplan
    from heatplan import bench, heatfield, planner

    return [
        ("generate_map", bench, "generate_map", None),
        ("generate_suite", heatplan, "generate_suite", None),
        ("generate_suite", bench, "generate_suite", None),
        ("score_fields", heatfield, "score_fields", _solve_key),
        ("solve_to_times", heatfield, "solve_to_times", None),
        ("build_score_field", heatfield, "build_score_field", None),
        ("FieldCache.fields", heatfield.FieldCache, "fields", None),
        ("plan", heatplan, "plan", None),
        ("plan", bench, "plan", None),
        ("langevin_step", planner, "langevin_step", None),
        ("interpolate", planner, "interpolate", None),
        ("validate_plan", planner, "validate_plan", None),
        ("run_one", bench, "run_one", None),
        ("run_suite", heatplan, "run_suite", _workers_arg),
    ]


class Tracer:
    """Wraps entry points, records spans, and restores the originals.

    Use as a context manager; ``spans`` holds this process's spans plus those
    spooled back by pool workers after ``__exit__``.
    """

    def __init__(self, spool_dir, targets=None):
        self.spool_dir = Path(spool_dir)
        self.targets = targets
        self.spans = []
        self.absent = set()
        self.pass_no = 0
        self.spooled = 0              # worker spool files read back
        self.resident_peak = {}       # pid -> peak ladder bytes over live caches
        self._live = weakref.WeakKeyDictionary()  # cache -> {id(ladder): bytes}
        self._stack = []
        self._plan = None
        self._count = 0
        self._pid = os.getpid()
        self._saved = []
        self._active = False

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        targets = self.targets if self.targets is not None else default_targets()
        for name, owner, attr, tag_fn in targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, tag_fn))
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._active = True
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def __exit__(self, *exc):
        self._active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.collect_spool()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, tag_fn):
        tracer = self
        is_plan = name == "plan"
        is_fields = name == "FieldCache.fields"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count += 1
            sid = tracer._pid * _PID_STRIDE + tracer._count
            parent = tracer._stack[-1] if tracer._stack else None
            own_plan = is_plan and tracer._plan is None
            if own_plan:
                tracer._plan = sid
            tag = tag_fn(args, kwargs) if tag_fn is not None else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer._plan, tracer.pass_no, tag))
                if own_plan:
                    tracer._plan = None
            if is_fields:
                tracer._note_ladder(args[0], result)
            return result

        return traced

    def _note_ladder(self, cache, ladder):
        held = self._live.setdefault(cache, {})
        if id(ladder) not in held:
            held[id(ladder)] = ladder_nbytes(ladder)
            resident = sum(sum(h.values()) for h in self._live.values())
            pid = os.getpid()
            self.resident_peak[pid] = max(self.resident_peak.get(pid, 0), resident)

    # -- pool workers ----------------------------------------------------------

    def _after_fork(self):
        if not self._active:
            return
        # keep the inherited stack so worker spans point at the span that
        # started the pool; drop the parent's finished spans
        self._pid = os.getpid()
        self._count = 0
        self.spans = []
        self.resident_peak = {}
        self._live = weakref.WeakKeyDictionary()
        mp_util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self):
        doc = {"spans": self.spans, "resident_peak": self.resident_peak}
        path = self.spool_dir / f"spans-{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        tmp.replace(path)

    def collect_spool(self):
        """Merge the spans that exited pool workers wrote."""
        files = sorted(self.spool_dir.glob("spans-*.json"))
        for path in files:
            doc = json.loads(path.read_text(encoding="utf-8"))
            self.spans.extend(tuple(s) for s in doc["spans"])
            for pid, peak in doc["resident_peak"].items():
                self.resident_peak[int(pid)] = max(self.resident_peak.get(int(pid), 0), peak)
            path.unlink()
        self.spooled += len(files)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict:
    """sid -> span duration minus the part of its interval that its child
    spans cover.  Children may overlap (pool workers run in parallel), so the
    covered part is the union of the child intervals clipped to the parent."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[SID], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[SID]] = (end - start) - covered
    return out


def _descendants(spans, roots) -> set:
    kids = {}
    for s in spans:
        kids.setdefault(s[PARENT], []).append(s[SID])
    seen, todo = set(), list(roots)
    while todo:
        sid = todo.pop()
        for k in kids.get(sid, ()):
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return seen


# per-layer metric: (name, unit, span names it needs)
LAYER_METRICS = (
    ("gridmap.generate_map.s", "s/call", {"generate_map"}),
    ("bench.generate_suite.s", "s/call", {"generate_suite"}),
    ("heatfield.solve_to_times.s", "s/call", {"solve_to_times"}),
    ("heatfield.score_fields.calls", "count", {"score_fields"}),
    ("heatfield.build_score_field.s", "s/call", {"build_score_field"}),
    ("heatfield.build_score_field.calls", "count", {"build_score_field"}),
    ("heatfield.FieldCache.fields.hits", "count", {"FieldCache.fields", "score_fields"}),
    ("heatfield.FieldCache.fields.misses", "count", {"FieldCache.fields", "score_fields"}),
    ("heatfield.FieldCache.resident_mb", "MB", {"FieldCache.fields"}),
    ("planner.langevin_step.s", "s/plan", {"plan", "langevin_step", "interpolate"}),
    ("planner.interpolate.s", "s/plan", {"plan", "interpolate"}),
    ("planner.interpolate.calls", "count/plan", {"plan", "interpolate"}),
    ("planner.plan.self_s", "s/plan", {"plan", "FieldCache.fields", "langevin_step", "validate_plan"}),
    ("planner.validate_plan.s", "s/plan", {"plan", "validate_plan"}),
    ("bench.run_one.self_s", "s/call", {"run_one", "plan"}),
    ("bench.run_suite.solves_per_ladder", "ratio", {"run_suite", "score_fields"}),
    ("bench.run_suite.worker_busy_frac", "ratio", {"run_suite", "run_one"}),
    ("trace.overhead_ratio", "ratio", set()),
)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, passes: int, resident_bytes: int, overhead_ratio: float,
                  absent=(), spooled: int = 0) -> tuple:
    """Derive the per-layer metrics from the traced passes' spans.

    Counts are per traced pass (each pass repeats identical work, so they are
    exact); planner times are per plan; ``.s`` of other layers is per call.
    Returns (metrics dict, names reported absent).  A metric is absent when
    a span it needs could not be wrapped, or when a pool ran but no worker
    spooled spans back (a start method that does not inherit the wrappers).
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    own = self_times(spans)

    def dur(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    def selfs(name):
        return [own[s[SID]] for s in by_name.get(name, ())]

    n_plans = len(by_name.get("plan", ())) or 1
    solves = by_name.get("score_fields", [])
    solve_parents = {s[PARENT] for s in solves}
    fields = by_name.get("FieldCache.fields", [])
    misses = sum(1 for s in fields if s[SID] in solve_parents)
    suites = by_name.get("run_suite", [])
    under_suite = _descendants(spans, [s[SID] for s in suites])
    suite_solves = [s for s in solves if s[SID] in under_suite]
    unique = len({(s[PASS], tuple(s[TAG])) for s in suite_solves})
    capacity = sum((s[END] - s[START]) * s[TAG] for s in suites)
    busy = sum(s[END] - s[START] for s in by_name.get("run_one", ()) if s[SID] in under_suite)

    values = {
        "gridmap.generate_map.s": _mean(dur("generate_map")),
        "bench.generate_suite.s": _mean(dur("generate_suite")),
        "heatfield.solve_to_times.s": _mean(selfs("solve_to_times")),
        "heatfield.score_fields.calls": len(solves) / passes,
        "heatfield.build_score_field.s": _mean(dur("build_score_field")),
        "heatfield.build_score_field.calls": len(by_name.get("build_score_field", ())) / passes,
        "heatfield.FieldCache.fields.hits": (len(fields) - misses) / passes,
        "heatfield.FieldCache.fields.misses": misses / passes,
        "heatfield.FieldCache.resident_mb": resident_bytes / 2**20,
        "planner.langevin_step.s": sum(selfs("langevin_step")) / n_plans,
        "planner.interpolate.s": sum(dur("interpolate")) / n_plans,
        "planner.interpolate.calls": len(by_name.get("interpolate", ())) / n_plans,
        "planner.plan.self_s": sum(selfs("plan")) / n_plans,
        "planner.validate_plan.s": sum(dur("validate_plan")) / n_plans,
        "bench.run_one.self_s": _mean(selfs("run_one")),
        "bench.run_suite.solves_per_ladder": len(suite_solves) / unique if unique else 0.0,
        "bench.run_suite.worker_busy_frac": busy / capacity if capacity else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    missing = set(absent)
    if any(s[TAG] > 1 for s in suites) and not spooled:
        missing |= {"run_one", "score_fields"}
    metrics, gone = {}, []
    for name, unit, needs in LAYER_METRICS:
        if needs & missing:
            gone.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, gone
