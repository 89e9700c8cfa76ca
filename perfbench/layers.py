"""Outside-in layer spans for the traced benchmark run.

:func:`install` replaces the public functions of each layer — looked up as
module or class attributes at call time, where the calling code looks them
up — with wrappers that record one span per call: name, start, end, parent
span, request id and a few values read off the arguments or the return
value.  Nothing under ``src/`` changes; the untraced run installs nothing.

Spans stay in memory.  A process that is not the benchmark itself (the
daemon and the pool workers it forks) appends its finished spans to
``<sink_dir>/<pid>.jsonl`` each time one of its outermost spans closes.

A span's self time is its duration minus the time its direct child spans
cover; children run nested and sequentially on the parent's thread, so
that is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path

_PROFIT_CALLERS = (
    "repro.core.profits",
    "repro.core.onedim.planner",
    "repro.core.onedim.successive_rounding",
    "repro.core.onedim.fast_convergence",
    "repro.core.onedim.post_swap",
    "repro.core.onedim.post_insertion",
    "repro.core.twodim.planner",
    "repro.core.twodim.prefilter",
)


def _job_id(job):
    return getattr(job, "job_id", None)


def _milp_attrs(args, kwargs, result):
    program = kwargs.get("program", args[0] if args else None)
    free = sum(1 for v in program.variables if v.upper > v.lower)
    return {"nodes": int(result.iterations), "free_vars": free}


#: (span name, module, attribute, request id from the call args, extra values).
#: ``Class.method`` attributes are patched on the class.
TARGETS = [
    ("api.facade", "repro.api", "plan", None, None),
    ("runtime.jobs.execute", "repro.runtime.jobs", "execute_job",
     lambda a: _job_id(a[0]), None),
    ("runtime.jobs.execute", "repro.runtime.pool", "execute_job",
     lambda a: _job_id(a[0]), None),
    ("onedim.successive_rounding", "repro.core.onedim.planner", "successive_rounding", None, None),
    ("onedim.fast_convergence", "repro.core.onedim.planner", "fast_ilp_convergence", None, None),
    ("onedim.refinement", "repro.core.onedim.planner", "refine_row_order", None, None),
    ("onedim.post_swap", "repro.core.onedim.planner", "post_swap", None, None),
    ("onedim.post_insertion", "repro.core.onedim.planner", "post_insertion", None, None),
    ("solver.milp", "repro.core.onedim.fast_convergence", "solve_ilp", None, _milp_attrs),
    ("solver.lp", "repro.core.onedim.formulation",
     "SimplifiedLPStructure.solve_relaxation", None, None),
    ("matching", "repro.core.onedim.post_insertion", "max_weight_matching", None, None),
    *[("core.profits", module, "compute_profits", None, None) for module in _PROFIT_CALLERS],
    ("twodim.prefilter", "repro.core.twodim.planner", "prefilter_characters", None, None),
    ("twodim.clustering", "repro.core.twodim.planner", "cluster_characters", None, None),
    ("floorplan.anneal", "repro.floorplan.fixed_outline", "FixedOutlinePacker.pack", None, None),
    ("runtime.store.get", "repro.runtime.store", "ResultStore.get",
     lambda a: _job_id(a[1]), lambda a, k, r: {"hit": r is not None}),
    ("runtime.store.put", "repro.runtime.store", "ResultStore.put",
     lambda a: _job_id(a[1]), None),
    ("runtime.pool.submit", "repro.runtime.pool", "PlannerPool.submit",
     lambda a: _job_id(list(a[1])[0]), None),
    ("runtime.pool.collect", "repro.runtime.pool", "PlannerPool.collect",
     lambda a: _job_id(a[1]), None),
    ("dist.run", "repro.dist.scheduler", "BrokerScheduler.run_jobs",
     lambda a: _job_id(list(a[1])[0]), None),
]


class Recorder:
    """Collects the spans of one process (and of the children it forks)."""

    def __init__(self, sink_dir: str | None = None) -> None:
        self.sink_dir = sink_dir
        self.spans: list[dict] = []
        #: Request id given to outermost spans that carry none of their own.
        self.request_id = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with no open spans and no spans of
        # its parent's to flush.
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def finish(self, record: dict, outermost: bool) -> None:
        with self._lock:
            self.spans.append(record)
            if not (outermost and self.sink_dir):
                return
            pending, self.spans = self.spans, []
        path = Path(self.sink_dir) / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(r) + "\n" for r in pending))

    def wrap(self, name, fn, id_of=None, attrs=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent["name"] == name:
                # execute_job re-enters itself to install an event sink.
                return fn(*args, **kwargs)
            rid = id_of(args) if id_of is not None else None
            if rid is None:
                rid = parent["rid"] if parent is not None else recorder.request_id
            record = {
                "name": name, "id": f"{os.getpid()}-{next(recorder._ids)}",
                "parent": parent["id"] if parent is not None else None,
                "rid": rid, "pid": os.getpid(), "child": 0.0,
            }
            stack.append(record)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record["start"], record["end"] = start, end
                if parent is not None:
                    parent["child"] += end - start
                if attrs is not None and result is not None:
                    record.update(attrs(args, kwargs, result))
                recorder.finish(record, parent is None)

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry for the rest of the process."""
    for name, module_name, attribute, id_of, attrs in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf), id_of, attrs))


def read_sink(sink_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(sink_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def span_metrics(spans: list[dict]) -> dict:
    """Per-layer sums, self times, per-call p50s and counts from spans."""
    by_name: dict[str, list[dict]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)

    def dur(record):
        return record["end"] - record["start"]

    def total(name):
        return sum(dur(r) for r in by_name.get(name, ()))

    def self_total(name):
        return sum(dur(r) - r["child"] for r in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def p50_ms(name, own=False):
        values = [dur(r) - (r["child"] if own else 0.0) for r in by_name.get(name, ())]
        return statistics.median(values) * 1e3 if values else 0.0

    def attr_sum(name, key):
        return sum(r.get(key, 0) for r in by_name.get(name, ()))

    gets = by_name.get("runtime.store.get", ())
    return {
        "solver.milp.s": total("solver.milp"),
        "solver.milp.calls": calls("solver.milp"),
        "solver.milp.nodes": attr_sum("solver.milp", "nodes"),
        "solver.milp.free_vars": attr_sum("solver.milp", "free_vars"),
        "solver.lp.s": total("solver.lp"),
        "solver.lp.calls": calls("solver.lp"),
        "onedim.successive_rounding.self_s": self_total("onedim.successive_rounding"),
        "onedim.fast_convergence.self_s": self_total("onedim.fast_convergence"),
        "onedim.refinement.s": total("onedim.refinement"),
        "onedim.post_swap.s": total("onedim.post_swap"),
        "onedim.post_insertion.self_s": self_total("onedim.post_insertion"),
        "matching.s": total("matching"),
        "matching.calls": calls("matching"),
        "core.profits.s": total("core.profits"),
        "core.profits.calls": calls("core.profits"),
        "twodim.prefilter.s": total("twodim.prefilter"),
        "twodim.clustering.s": total("twodim.clustering"),
        "floorplan.anneal.s": total("floorplan.anneal"),
        "api.facade.self_ms": p50_ms("api.facade", own=True),
        "runtime.jobs.execute.self_ms": p50_ms("runtime.jobs.execute", own=True),
        "runtime.store.get_ms": p50_ms("runtime.store.get"),
        "runtime.store.put_ms": p50_ms("runtime.store.put"),
        "runtime.store.get.calls": len(gets),
        "runtime.store.put.calls": calls("runtime.store.put"),
        "runtime.store.hit_ratio": (
            sum(1 for r in gets if r.get("hit")) / len(gets) if gets else 0.0
        ),
        "runtime.pool.submit_ms": p50_ms("runtime.pool.submit"),
        "runtime.pool.collect_ms": p50_ms("runtime.pool.collect"),
        "dist.run_ms": p50_ms("dist.run"),
    }
