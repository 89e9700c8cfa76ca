"""Command-line interface for the E-BLOW reproduction.

Examples
--------
Generate an instance and plan it (``--progress`` streams the PlanEvent
protocol; ``eblow planners`` lists the registry with capabilities)::

    eblow generate --kind 1D --characters 200 --regions 4 --out inst.json
    eblow plan --instance inst.json --planner eblow --out plan.json --progress
    eblow planners --verbose

Batch-serve a whole suite across worker processes (results are cached in the
content-addressed store, so re-runs are instant)::

    eblow batch --suite 1T --planner eblow --jobs 4 --manifest run.jsonl
    eblow portfolio --case 1M-1 --jobs 3
    eblow cache stats

Observe a run (``--metrics-out`` snapshots the :mod:`repro.obs` metrics
registry, ``--events-out`` records the event stream, and the ``stats`` /
``trace`` verbs render them afterwards)::

    eblow batch --suite 1T --jobs 2 --metrics-out metrics.json --events-out events.jsonl
    eblow stats metrics.json --format prom
    eblow trace events.jsonl

Reproduce the paper's tables and figures (scaled down by default; pass
``--scale 1.0`` or set ``REPRO_PAPER_SCALE=1`` for paper-scale instances)::

    eblow table3 --jobs 4
    eblow table4 --cases 2D-1 2M-1
    eblow table5
    eblow fig5
    eblow fig11
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext

from repro import __version__
from repro.evaluation import format_comparison_table
from repro.experiments import (
    run_fig5,
    run_fig6,
    run_fig11_12,
    run_table3,
    run_table4,
    run_table5,
)
from repro.io import load_instance, save_instance, save_plan
from repro.model import StencilPlan
from repro.workloads import build_instance, default_scale, generate_1d_instance, generate_2d_instance

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="eblow",
        description="E-BLOW: overlapping-aware stencil planning for e-beam MCC systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic OSP instance")
    generate.add_argument("--kind", choices=["1D", "2D"], default="1D")
    generate.add_argument("--characters", type=int, default=200)
    generate.add_argument("--regions", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--stencil", type=float, default=500.0, help="square stencil edge")
    generate.add_argument("--case", help="named benchmark case (overrides the options above)")
    generate.add_argument("--scale", type=float, default=None)
    generate.add_argument("--out", required=True)

    planners = sub.add_parser(
        "planners", help="list registered planners with their kinds, flags and options"
    )
    planners.add_argument("--kind", choices=["1D", "2D"], default=None)
    planners.add_argument(
        "--verbose", action="store_true", help="also print each planner's declared options"
    )
    planners.add_argument("--json", action="store_true", help="emit the whole catalogue as JSON")

    plan = sub.add_parser("plan", help="plan an instance with a registered planner")
    plan.add_argument("--instance", required=True)
    plan.add_argument(
        "--planner",
        default="eblow",
        help="registered planner name (bare family names dispatch on instance kind; "
        "see `eblow planners`)",
    )
    plan.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="wall-clock seconds for the run (also passed to ILP planners)",
    )
    plan.add_argument(
        "--progress",
        action="store_true",
        help="stream the planner's PlanEvent protocol (stages, LP solves, "
        "annealing temperature steps, incumbents) to stdout",
    )
    plan.add_argument(
        "--events-out",
        default=None,
        help="write the full event stream as JSONL telemetry to this file",
    )
    plan.add_argument(
        "--metrics-out",
        default=None,
        help="write a repro.obs metrics snapshot (JSON) for the run to this file",
    )
    plan.add_argument("--out", default=None)

    batch = sub.add_parser("batch", help="run a cases x planners grid through the worker pool")
    batch.add_argument("--cases", nargs="*", default=None, help="case or suite names (e.g. 1T 1M-3)")
    batch.add_argument("--suite", default=None, help="suite shorthand (1D, 1M, 2D, 2M, 1T, 2T, all)")
    batch.add_argument(
        "--planner",
        action="append",
        default=None,
        help="planner to run on every case (repeatable; default: eblow)",
    )
    batch.add_argument("--jobs", type=int, default=1, help="worker processes (1 = in-process)")
    batch.add_argument("--scale", type=float, default=None)
    batch.add_argument("--timeout", type=float, default=None, help="per-job wall-clock seconds")
    batch.add_argument(
        "--supervise",
        action="store_true",
        help="run under the fault-tolerant supervisor: durable job leases, "
        "heartbeat-driven worker supervision, automatic re-queue with backoff "
        "on worker death, and poison-job quarantine",
    )
    batch.add_argument(
        "--journal",
        default=None,
        help="write the supervisor's JSONL job journal here (implies "
        "--supervise; default with --manifest: <manifest>.journal.jsonl)",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed batch from its journal: finished jobs are "
        "served from journal + store, only unfinished jobs re-execute "
        "(implies --supervise; needs --journal or --manifest)",
    )
    batch.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="dispatch attempts per job before quarantine: the only retry "
        "knob (implies --supervise; default 3)",
    )
    batch.add_argument("--no-cache", action="store_true", help="bypass the result store")
    batch.add_argument("--cache-dir", default=None, help="result-store root (default ~/.cache/eblow)")
    batch.add_argument("--manifest", default=None, help="write a JSONL telemetry manifest here")
    batch.add_argument(
        "--metrics-out",
        default=None,
        help="write a merged metrics snapshot (JSON) for the whole batch here; "
        "worker-process registries are folded into the parent's",
    )
    batch.add_argument(
        "--events-out",
        default=None,
        help="record every PlanEvent (including trace spans) as JSONL here; "
        "render with `eblow trace`",
    )
    batch.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    batch.add_argument("--list-planners", action="store_true", help="list registered planners and exit")
    batch.add_argument(
        "--broker",
        default=None,
        help="run the grid over a durable work-queue spool at this directory "
        "instead of the in-process pool: jobs are enqueued with fenced "
        "leases and served by `eblow worker` processes (--jobs of them are "
        "spawned here; 0 = rely on externally launched workers)",
    )
    batch.add_argument(
        "--broker-queue",
        default="default",
        help="queue name inside the broker spool (default: default)",
    )
    batch.add_argument(
        "--broker-timeout",
        type=float,
        default=None,
        help="seconds the broker driver waits without any spool progress "
        "before giving up (default: wait forever)",
    )

    portfolio = sub.add_parser("portfolio", help="race several planners on one instance")
    portfolio.add_argument("--case", default=None, help="named benchmark case")
    portfolio.add_argument("--instance", default=None, help="instance JSON file")
    portfolio.add_argument(
        "--planner",
        action="append",
        default=None,
        help="portfolio entrant (repeatable; default: greedy / E-BLOW-0 / E-BLOW-1)",
    )
    portfolio.add_argument("--jobs", type=int, default=None, help="worker processes (default: entrants)")
    portfolio.add_argument("--scale", type=float, default=None)
    portfolio.add_argument("--timeout", type=float, default=None, help="per-entrant wall-clock seconds")
    portfolio.add_argument("--budget", type=float, default=None, help="stop the race after this many seconds")
    portfolio.add_argument(
        "--target",
        type=float,
        default=None,
        help="stop the race as soon as a plan reaches this writing time",
    )
    portfolio.add_argument(
        "--straggler-grace",
        type=float,
        default=None,
        help="seconds stragglers may keep running past the first finisher "
        "unless their incumbent events beat the current winner",
    )
    portfolio.add_argument(
        "--progress",
        action="store_true",
        help="stream label-stamped PlanEvents from all entrants to stdout",
    )
    portfolio.add_argument("--no-cache", action="store_true", help="bypass the result store")
    portfolio.add_argument("--cache-dir", default=None)
    portfolio.add_argument("--manifest", default=None, help="write a JSONL telemetry manifest here")
    portfolio.add_argument(
        "--metrics-out",
        default=None,
        help="write a merged metrics snapshot (JSON) for the race to this file",
    )
    portfolio.add_argument("--out", default=None, help="write the winning plan here")
    portfolio.add_argument("--json", action="store_true")

    stats = sub.add_parser("stats", help="render a metrics snapshot or manifest")
    stats.add_argument(
        "source",
        help="metrics snapshot JSON (from --metrics-out) or a JSONL manifest "
        "containing a metrics record",
    )
    stats.add_argument(
        "--format",
        choices=["table", "prom", "json"],
        default="table",
        help="table (default), Prometheus text exposition, or raw JSON",
    )

    trace = sub.add_parser("trace", help="render a recorded event stream as a span trace")
    trace.add_argument(
        "source",
        help="JSONL event stream (from --events-out) or a manifest with event records",
    )
    trace.add_argument("--depth", type=int, default=None, help="truncate the tree display")
    trace.add_argument("--json", action="store_true", help="emit the span tree as JSON")

    jobs = sub.add_parser("jobs", help="inspect a supervisor job journal or a broker spool")
    jobs.add_argument(
        "journal",
        help="JSONL job journal (from batch --journal / --supervise), or a "
        "broker spool directory (from --broker) for live queue inspection",
    )
    jobs.add_argument(
        "--queue",
        default="default",
        help="queue name when inspecting a broker spool directory",
    )
    jobs.add_argument(
        "--ops",
        action="store_true",
        help="also print the raw lease-op history per job",
    )
    jobs.add_argument("--json", action="store_true", help="emit the replayed state as JSON")

    cache = sub.add_parser("cache", help="inspect, clear, or prune the result store")
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument("--all-versions", action="store_true", help="clear every code version")
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune: evict least-recently-used entries until the store fits "
        "this byte budget (stale code versions age out first)",
    )
    cache.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve", help="run the resident planning daemon (NDJSON over a socket)"
    )
    serve.add_argument("--socket", default=None, help="Unix socket path to listen on")
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host (with --port)")
    serve.add_argument(
        "--port", type=int, default=None, help="TCP port (0 = ephemeral; prints the bound port)"
    )
    serve.add_argument("--workers", type=int, default=1, help="planner pool worker processes")
    serve.add_argument(
        "--max-inflight", type=int, default=2, help="concurrently executing flights (pool slots)"
    )
    serve.add_argument(
        "--per-client-queue",
        type=int,
        default=16,
        help="admission queue bound per client (beyond it: queue_full rejection)",
    )
    serve.add_argument(
        "--event-buffer",
        type=int,
        default=256,
        help="per-subscriber event buffer; overflow drops the oldest events",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds a SIGTERM drain waits for in-flight work before escalating",
    )
    serve.add_argument("--no-cache", action="store_true", help="bypass the result store")
    serve.add_argument("--cache-dir", default=None, help="result-store root (default ~/.cache/eblow)")
    serve.add_argument(
        "--prune-bytes",
        type=int,
        default=None,
        help="prune the store to this byte budget (LRU) during shutdown",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the daemon's metrics snapshot here during shutdown",
    )
    serve.add_argument(
        "--broker",
        default=None,
        help="execute flights over a durable broker spool at this directory "
        "instead of an in-process pool (--workers `eblow worker` processes "
        "are spawned; 0 = rely on externally launched workers)",
    )
    serve.add_argument(
        "--broker-queue",
        default="default",
        help="queue name inside the broker spool (default: default)",
    )

    worker = sub.add_parser(
        "worker", help="serve a broker spool: claim, heartbeat, execute, commit"
    )
    worker.add_argument(
        "--broker", required=True, help="broker spool directory (from batch --broker)"
    )
    worker.add_argument("--queue", default="default", help="queue name inside the spool")
    worker.add_argument(
        "--worker-id", default=None, help="stable worker identity (default: pid-derived)"
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="longest wait in seconds between claim attempts when idle "
        "(an enqueue on the same host wakes the worker at once)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, help="exit after this many jobs (default: run forever)"
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after this many seconds without claimable work (default: never)",
    )
    worker.add_argument(
        "--wait",
        type=float,
        default=10.0,
        help="seconds to wait for the spool to appear (drivers may create it late)",
    )
    worker.add_argument("--json", action="store_true", help="emit the exit summary as JSON")

    submit = sub.add_parser("submit", help="submit a plan request to a running daemon")
    submit.add_argument("--socket", default=None, help="daemon Unix socket path")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=None, help="daemon TCP port")
    submit.add_argument("--case", default=None, help="named benchmark case")
    submit.add_argument("--instance", default=None, help="instance JSON file (shipped inline)")
    submit.add_argument("--planner", default="eblow")
    submit.add_argument("--scale", type=float, default=None)
    submit.add_argument("--timeout", type=float, default=None)
    submit.add_argument("--label", default=None)
    submit.add_argument(
        "--burst",
        type=int,
        default=1,
        help="submit N concurrent duplicates (one connection each) — exercises "
        "the daemon's request coalescing",
    )
    submit.add_argument("--progress", action="store_true", help="stream PlanEvents to stdout")
    submit.add_argument("--out", default=None, help="write the resulting plan here")
    submit.add_argument("--json", action="store_true")

    watch = sub.add_parser(
        "watch", help="watch a running daemon: its status, or one job's event stream"
    )
    watch.add_argument(
        "job_id", nargs="?", default=None,
        help="job id to subscribe to (omit for the daemon's status)",
    )
    watch.add_argument("--socket", default=None, help="daemon Unix socket path")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=None, help="daemon TCP port")
    watch.add_argument("--json", action="store_true")

    for name, helptext in (
        ("table3", "reproduce Table 3 (1DOSP comparison)"),
        ("table4", "reproduce Table 4 (2DOSP comparison)"),
        ("table5", "reproduce Table 5 (exact ILP vs E-BLOW)"),
        ("fig11", "reproduce Figs. 11-12 (E-BLOW-0 vs E-BLOW-1 ablation)"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--cases", nargs="*", default=None)
        cmd.add_argument("--scale", type=float, default=None)
        cmd.add_argument("--jobs", type=int, default=1, help="worker processes for the grid")
        cmd.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    fig5 = sub.add_parser("fig5", help="reproduce Fig. 5 (rounding convergence trace)")
    fig5.add_argument("--cases", nargs="*", default=None)
    fig5.add_argument("--scale", type=float, default=None)

    fig6 = sub.add_parser("fig6", help="reproduce Fig. 6 (last-LP value distribution)")
    fig6.add_argument("--case", default="1M-1")
    fig6.add_argument("--scale", type=float, default=None)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.case:
        instance = build_instance(args.case, args.scale or default_scale())
    elif args.kind == "1D":
        instance = generate_1d_instance(
            num_characters=args.characters,
            num_regions=args.regions,
            seed=args.seed,
            stencil_width=args.stencil,
            stencil_height=args.stencil,
        )
    else:
        instance = generate_2d_instance(
            num_characters=args.characters,
            num_regions=args.regions,
            seed=args.seed,
            stencil_width=args.stencil,
            stencil_height=args.stencil,
        )
    save_instance(instance, args.out)
    print(
        f"wrote {instance.kind} instance {instance.name!r} with "
        f"{instance.num_characters} characters to {args.out}"
    )
    return 0


def _planner_options(planner: str, kind: str, time_limit: float | None) -> dict:
    """Options implied by CLI flags (planners that take one get the time limit)."""
    from repro.api import get_handle

    if time_limit is not None and get_handle(planner, kind).supports_time_limit:
        return {"time_limit": time_limit}
    return {}


def _cmd_planners(args: argparse.Namespace) -> int:
    from repro.api import describe_planners, iter_handles

    if args.json:
        print(json.dumps(describe_planners(args.kind), indent=2))
        return 0
    for handle in iter_handles(args.kind):
        flags = [handle.kind or "any"]
        if handle.deterministic:
            flags.append("deterministic")
        if handle.supports_time_limit:
            flags.append("time-limit")
        if handle.event_types:
            flags.append("events:" + ",".join(handle.event_types))
        print(f"{handle.name:12s} [{' '.join(flags)}] {handle.description}")
        if args.verbose:
            for option in handle.options:
                default = f" (default {option.default!r})" if option.default is not None else ""
                print(f"    {option.name}: {option.type}{default} — {option.description}")
    return 0


def _write_events_out(path: str | None, result) -> None:
    """Persist a result's captured event stream as JSONL telemetry."""
    if not path:
        return
    from repro.runtime import Telemetry

    telemetry = Telemetry(path)
    for event in result.events:
        telemetry.record_event(event, job_id=result.job_id)
    print(f"wrote {len(result.events)} events to {path}")


def _read_instance(verb: str, path: str):
    """The instance at ``--instance``, or None after printing why it is not one."""
    from repro.errors import ValidationError

    try:
        return load_instance(path)
    except (ValidationError, OSError) as exc:
        print(f"{verb}: cannot read instance {path}: {exc}", file=sys.stderr)
        return None


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.api import PlanningError, plan as run_plan
    from repro.errors import ValidationError

    instance = _read_instance("plan", args.instance)
    if instance is None:
        return 2
    try:
        options = _planner_options(args.planner, instance.kind, args.time_limit)
    except ValidationError as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return 2

    on_event = None
    if args.progress:
        def on_event(event) -> None:
            print(event.describe(), flush=True)

    # ILP planners enforce the limit inside the solver and return their
    # incumbent plan; arming the wall-clock job timeout too would fire first
    # (build + extraction overhead) and discard that incumbent.
    try:
        result = run_plan(
            instance,
            planner=args.planner,
            options=options,
            timeout=None if "time_limit" in options else args.time_limit,
            label=args.planner,
            on_event=on_event,
        )
    except PlanningError as exc:
        failed = exc.result
        detail = f"{failed.status} — {failed.error}" if failed is not None else str(exc)
        print(f"{instance.name}: {detail}", file=sys.stderr)
        if failed is not None:
            # The captured stream matters most on failures — keep it.
            _write_events_out(args.events_out, failed)
        return 1
    _write_events_out(args.events_out, result)
    print(
        f"{instance.name}: writing time {result.writing_time:.0f}, "
        f"{result.num_selected} characters on stencil, "
        f"{result.runtime_seconds:.2f}s"
    )
    if args.out:
        save_plan(result.plan_object(instance), args.out)
        print(f"wrote plan to {args.out}")
    return 0


def _batch_store(args):
    from repro.runtime import ResultStore

    if args.no_cache:
        return None
    return ResultStore(args.cache_dir)


@contextmanager
def _graceful_drain(pool, what: str):
    """SIGTERM/SIGINT → drain instead of dying mid-write.

    The first signal soft-cancels the pool's running jobs (``SIGUSR1`` —
    they resolve as ``cancelled`` and the loop winds down normally, so
    manifests, journals, and metrics snapshots are flushed on the way out);
    a second signal raises :class:`KeyboardInterrupt` for a hard stop.
    Yields a dict whose ``"flag"`` turns true once a drain was requested.
    """
    import signal as _signal

    interrupted = {"flag": False}

    def _handler(signum, frame):
        if interrupted["flag"]:
            raise KeyboardInterrupt
        interrupted["flag"] = True
        name = _signal.Signals(signum).name
        print(
            f"{what}: received {name}, draining (signal again to force quit)",
            file=sys.stderr,
            flush=True,
        )
        pool.cancel_running()

    previous = {}
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[signum] = _signal.signal(signum, _handler)
        except (ValueError, OSError):  # not the main thread / restricted env
            pass
    try:
        yield interrupted
    finally:
        for signum, old in previous.items():
            _signal.signal(signum, old)


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.api import list_planners
    from repro.runtime import (
        LeasePolicy,
        LocalScheduler,
        PlannerPool,
        Telemetry,
        grid_jobs,
        iter_jobs,
    )
    from repro.workloads import resolve_cases

    if args.list_planners:
        for name, description in list_planners().items():
            print(f"{name:12s} {description}")
        return 0

    tokens = list(args.cases or [])
    if args.suite:
        tokens.insert(0, args.suite)
    if not tokens:
        print("batch: no cases given (use --cases and/or --suite)", file=sys.stderr)
        return 2
    from repro.errors import ValidationError

    try:
        cases = resolve_cases(tokens)
    except ValidationError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    planners = {name: name for name in (args.planner or ["eblow"])}
    scale = args.scale if args.scale is not None else default_scale()

    broker_mode = args.broker is not None
    if broker_mode:
        # The spool is the journal and resume is implicit: these flags
        # would be silently ignored.
        clashing = [
            flag
            for flag, given in (
                ("--supervise", args.supervise),
                ("--journal", args.journal is not None),
                ("--resume", args.resume),
            )
            if given
        ]
        if clashing:
            print(f"batch: {', '.join(clashing)} cannot be combined with --broker",
                  file=sys.stderr)
            return 2
    supervised = not broker_mode and (
        args.supervise
        or args.resume
        or args.journal is not None
        or args.max_attempts is not None
    )
    journal = args.journal
    if supervised and journal is None and args.manifest:
        # Default the journal next to the manifest so one --manifest flag
        # yields a fully resumable run (run.jsonl -> run.journal.jsonl).
        from pathlib import Path

        manifest_path = Path(args.manifest)
        journal = str(
            manifest_path.with_name(manifest_path.stem + ".journal" + (manifest_path.suffix or ".jsonl"))
        )
    if args.resume and journal is None:
        print("batch: --resume needs --journal (or --manifest)", file=sys.stderr)
        return 2
    store = _batch_store(args)
    attempts = {} if args.max_attempts is None else {"max_attempts": args.max_attempts}
    try:
        if broker_mode:
            from repro.dist import BrokerConfig

            policy = BrokerConfig(
                store_dir=str(store.root) if store is not None else None, **attempts
            )
        else:
            policy = LeasePolicy(**attempts) if supervised else None
    except ValidationError as exc:
        print(f"batch: --max-attempts: {exc}", file=sys.stderr)
        return 2

    # A resumed run appends to the existing manifest instead of truncating it,
    # so the combined file tells the whole story of the crashed + resumed run.
    telemetry = Telemetry(args.manifest, append=args.resume)
    grid = grid_jobs(cases, planners, scale=scale, timeout=args.timeout)

    # --events-out records every PlanEvent as JSONL.  With worker processes
    # the sink is also installed as an emitting scope in this process so the
    # parent-side batch/dispatch spans are captured alongside the relayed
    # worker streams; inline runs skip the scope (the pool already wraps each
    # job in emitting(on_event) — a second scope would record every event
    # twice) and so carry per-job traces only.
    sink = None
    scope = nullcontext()
    if args.events_out:
        from repro.obs.tracing import span

        events_log = Telemetry(args.events_out)
        sink = events_log.record_event
        if args.jobs > 1:
            from repro.events import emitting

            scope = emitting(sink)
    else:
        span = None

    start = time.perf_counter()
    results = []
    if broker_mode:
        # Broker mode: dispatch over the durable spool — no in-process pool.
        # `eblow jobs <spool>` inspects its ledger live, and the drain
        # handler is the scheduler's own close (SIGTERM/SIGINT terminate the
        # owned fleet via the context manager below).
        from repro.dist import BrokerScheduler

        scheduler = BrokerScheduler(
            args.broker,
            queue=args.broker_queue,
            config=policy,
            workers=max(0, args.jobs),
            wait_timeout=args.broker_timeout,
        )
        pool = nullcontext()
        drain = nullcontext({"flag": False})
    else:
        # One explicit warm pool for the whole invocation: workers (and their
        # per-case instance memos) persist across every job of the grid,
        # and shutdown joins them deterministically.
        pool = PlannerPool(max_workers=args.jobs)
        scheduler = LocalScheduler(
            pool=pool, supervisor=policy, journal=journal, resume=args.resume
        )
        drain = _graceful_drain(pool, "batch")
    with scheduler, pool, drain as interrupted, scope, (
        span("batch", jobs=args.jobs, cases=len(cases)) if span else nullcontext()
    ):
        for result in iter_jobs(
            grid, scheduler=scheduler, store=store, telemetry=telemetry, on_event=sink
        ):
            results.append(result)
            if interrupted["flag"]:
                # Soft-cancelled jobs resolve as ``cancelled`` and stream out
                # here; stop consuming once the current dispatch settles so
                # the summary/manifest flush below still runs.
                break
            if not args.json:
                origin = "cache" if result.cache_hit else f"pid {result.worker_pid}"
                line = (
                    f"[{len(results):>3}/{len(grid)}] {result.case:>6} {result.label:<12} "
                    f"{result.status:<7} ({origin}, {result.wall_seconds:.2f}s"
                )
                if result.ok:
                    line += f", T={result.writing_time:.0f}, chars={result.num_selected}"
                line += ")"
                print(line, flush=True)
    wall = time.perf_counter() - start

    summary = telemetry.summary()
    summary["batch_wall_seconds"] = wall
    summary["jobs_per_second"] = (len(results) / wall) if wall > 0 else float("inf")
    summary["workers"] = args.jobs
    if args.json:
        payload = {"results": [r.to_dict() for r in results], "summary": summary}
        print(json.dumps(payload, indent=2, default=str))
    else:
        tail = ""
        if summary.get("cancelled"):
            tail += f", {summary['cancelled']} cancelled"
        if summary.get("quarantined"):
            tail += f", {summary['quarantined']} quarantined"
        print(
            f"\n{summary['jobs']} jobs in {wall:.2f}s "
            f"({summary['jobs_per_second']:.2f} jobs/s, --jobs {args.jobs}): "
            f"{summary['ok']} ok, {summary['errors']} errors, "
            f"{summary['timeouts']} timeouts, "
            f"{summary['cache_hits']} cache hits / {summary['cache_misses']} misses"
            + tail
        )
        if args.manifest:
            print(f"manifest written to {args.manifest}")
        if journal:
            print(f"journal written to {journal}")
        if broker_mode:
            print(f"broker spool at {args.broker} (inspect with `eblow jobs {args.broker}`)")
        if args.events_out:
            print(f"{len(events_log.records)} events written to {args.events_out}")
    if interrupted["flag"]:
        print(
            f"batch: drained after signal ({len(results)}/{len(grid)} jobs resolved)",
            file=sys.stderr,
        )
        return 1
    return 0 if summary["ok"] == summary["jobs"] else 1


_PORTFOLIO_DEFAULTS = {
    "1D": {
        "greedy": "greedy-1d",
        "e-blow-0": ("eblow-1d", {"ablated": True}),
        "e-blow-1": "eblow-1d",
    },
    "2D": {"greedy": "greedy-2d", "sa": "sa-2d", "e-blow": "eblow-2d"},
}


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.runtime import PlannerSpec, Telemetry, run_portfolio

    if (args.case is None) == (args.instance is None):
        print("portfolio: give exactly one of --case or --instance", file=sys.stderr)
        return 2
    if args.instance is not None:
        target = _read_instance("portfolio", args.instance)
        if target is None:
            return 2
        kind = target.kind
        scale = None
    else:
        from repro.runtime.jobs import case_kind

        kind = case_kind(args.case)
        if kind is None:
            print(f"portfolio: unknown case {args.case!r}", file=sys.stderr)
            return 2
        target = args.case
        scale = args.scale if args.scale is not None else default_scale()

    if args.planner:
        entries = {name: PlannerSpec(name) for name in args.planner}
    else:
        entries = {
            label: PlannerSpec(*spec) if isinstance(spec, tuple) else PlannerSpec(spec)
            for label, spec in _PORTFOLIO_DEFAULTS[kind].items()
        }

    on_event = None
    if args.progress:
        def on_event(event) -> None:
            print(event.describe(), flush=True)

    telemetry = Telemetry(args.manifest)
    # An explicit pool (rather than letting run_portfolio create one) so the
    # signal handler can soft-cancel the entrants: SIGTERM/SIGINT drains the
    # race — stragglers resolve as cancelled, the outcome and its manifest /
    # metrics snapshot are flushed — instead of killing the process mid-write.
    from repro.runtime import PlannerPool, default_workers

    workers = default_workers(args.jobs) if args.jobs is None else max(1, args.jobs)
    pool = PlannerPool(max_workers=min(workers, len(entries)))
    with pool, _graceful_drain(pool, "portfolio"):
        outcome = run_portfolio(
            target,
            entries,
            scale=scale,
            timeout=args.timeout,
            budget=args.budget,
            target=args.target,
            straggler_grace=args.straggler_grace,
            on_event=on_event,
            store=_batch_store(args),
            telemetry=telemetry,
            pool=pool,
        )

    if args.json:
        payload = {
            "winner": outcome.winner.to_dict() if outcome.winner else None,
            "results": [r.to_dict() for r in outcome.results],
            "cancelled": outcome.cancelled,
            "wall_seconds": outcome.wall_seconds,
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        for result in sorted(outcome.results, key=lambda r: (r.status != "ok", r.writing_time)):
            marker = "*" if outcome.winner is result else " "
            detail = (
                f"T={result.writing_time:.0f}, chars={result.num_selected}, "
                f"{result.wall_seconds:.2f}s" + (", cache" if result.cache_hit else "")
                if result.ok
                else f"{result.status}: {result.error}"
            )
            print(f"{marker} {result.label:<12} {detail}")
        for label in outcome.cancelled:
            print(f"  {label:<12} cancelled (budget/target/straggler)")
        if outcome.winner is not None:
            print(
                f"winner: {outcome.winner.label} "
                f"(T={outcome.winner.writing_time:.0f}) in {outcome.wall_seconds:.2f}s"
            )
    if outcome.winner is None:
        print("portfolio: no entrant produced a plan", file=sys.stderr)
        return 1
    if args.out:
        instance = target if not isinstance(target, str) else build_instance(target, scale)
        save_plan(StencilPlan.from_dict(instance, outcome.winner.plan), args.out)
        print(f"wrote winning plan to {args.out}")
    return 0


def _with_metrics_snapshot(args: argparse.Namespace, run) -> int:
    """Run a command under a fresh metrics registry and export the snapshot.

    Installed process-wide for the duration of the command, the registry
    collects every series the run touches — worker-process registries are
    merged in by the pool as results are collected.  When ``--manifest`` is
    also given the snapshot is appended to the manifest as a ``metrics``
    record, so the JSONL file is a self-contained run report.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import write_snapshot

    with obs_metrics.collecting() as registry:
        code = run(args)
    snapshot = registry.snapshot()
    write_snapshot(snapshot, args.metrics_out)
    print(f"wrote metrics snapshot to {args.metrics_out}")
    if getattr(args, "manifest", None):
        from repro.runtime import Telemetry

        Telemetry(args.manifest).record_metrics(snapshot)
    return code


def _load_metrics_source(path: str) -> dict:
    """A snapshot from a JSON file or the last metrics record of a manifest."""
    from repro.obs.export import validate_snapshot
    from repro.runtime.telemetry import read_manifest

    with open(path) as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict) and "metrics" in data:
        return validate_snapshot(data)
    records = [r for r in read_manifest(path) if r.get("record") == "metrics"]
    if not records:
        raise ValueError(f"no metrics snapshot or metrics record found in {path}")
    last = records[-1]
    return validate_snapshot({"v": last.get("v", 1), "metrics": last.get("metrics", {})})


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.export import render_prometheus
    from repro.obs.report import render_metrics_table

    try:
        snapshot = _load_metrics_source(args.source)
    except OSError as exc:
        print(f"stats: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prom":
        print(render_prometheus(snapshot), end="")
    else:
        print(render_metrics_table(snapshot), end="\n")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report
    from repro.obs.tracing import TraceCollector
    from repro.runtime.telemetry import read_manifest

    try:
        records = read_manifest(args.source)
    except OSError as exc:
        print(f"trace: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    collector = TraceCollector()
    for record in records:
        collector.add_event_dict(record)
    if not collector.spans():
        print(f"trace: no span events found in {args.source}", file=sys.stderr)
        return 1
    root = collector.tree()
    if args.json:
        print(json.dumps(root.to_dict(), indent=2))
        return 0
    # A manifest may also carry a metrics record; fold it into the report.
    try:
        snapshot = _load_metrics_source(args.source)
    except (OSError, ValueError):
        snapshot = None
    print(render_report(root, snapshot, max_depth=args.depth), end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"store root: {stats['root']} (code version {stats['version']})")
            print(f"entries: {stats['entries']} ({stats['bytes']} bytes)")
            for version, count in sorted(stats["per_version"].items()):
                print(f"  {version}: {count}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            print("cache: prune needs --max-bytes", file=sys.stderr)
            return 2
        report = store.prune(args.max_bytes)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(
                f"evicted {report['evicted']} entries ({report['bytes_freed']} bytes); "
                f"{report['entries_remaining']} entries "
                f"({report['bytes_remaining']} bytes) remain under the "
                f"{args.max_bytes}-byte budget"
            )
        return 0
    removed = store.clear(all_versions=args.all_versions)
    scope = "all versions" if args.all_versions else f"version {store.version}"
    print(f"removed {removed} cached results ({scope})")
    return 0


def _serve_endpoint(args: argparse.Namespace, what: str) -> dict | None:
    """Client connection kwargs from --socket/--host/--port (or None + error)."""
    if (args.socket is None) == (args.port is None):
        print(f"{what}: give exactly one of --socket or --port", file=sys.stderr)
        return None
    if args.socket is not None:
        return {"socket": args.socket}
    return {"host": args.host, "port": args.port}


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ValidationError
    from repro.serve import PlanServer, ServeConfig

    try:
        config = ServeConfig(
            socket=args.socket,
            host=args.host,
            port=args.port,
            workers=max(1, args.workers),
            max_inflight=args.max_inflight,
            per_client_queue=args.per_client_queue,
            event_buffer=args.event_buffer,
            drain_grace=args.drain_grace,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            prune_bytes=args.prune_bytes,
            metrics_out=args.metrics_out,
            broker=args.broker,
            broker_queue=args.broker_queue,
        )
    except ValidationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    server = PlanServer(config)
    server.on_ready = lambda address: print(
        f"eblow serve: listening on {address}", flush=True
    )
    asyncio.run(server.run())
    print("eblow serve: drained, exiting", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    endpoint = _serve_endpoint(args, "submit")
    if endpoint is None:
        return 2
    if (args.case is None) == (args.instance is None):
        print("submit: give exactly one of --case or --instance", file=sys.stderr)
        return 2
    target = args.case
    if target is None:
        target = _read_instance("submit", args.instance)
        if target is None:
            return 2
    kwargs = dict(
        planner=args.planner,
        scale=args.scale,
        timeout=args.timeout,
        label=args.label,
        check=False,
    )

    if args.burst > 1:
        # One connection per duplicate, submitted concurrently: the daemon
        # coalesces them onto a single pool execution — the per-request
        # outcomes printed below are the proof.
        import threading

        outcomes: list[tuple[str | None, object]] = [None] * args.burst

        def _one(index: int) -> None:
            try:
                with ServeClient(**endpoint) as client:
                    result = client.plan(target, **kwargs)
                    outcomes[index] = (client.last_outcome, result)
            except Exception as exc:  # noqa: BLE001 — reported per-slot below
                outcomes[index] = ("error", exc)

        threads = [
            threading.Thread(target=_one, args=(i,), name=f"submit-{i}")
            for i in range(args.burst)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts: dict[str, int] = {}
        ok = 0
        for item in outcomes:
            outcome, result = item if item is not None else ("error", None)
            counts[outcome] = counts.get(outcome, 0) + 1
            if getattr(result, "ok", False):
                ok += 1
        if args.json:
            print(json.dumps({"burst": args.burst, "ok": ok, "outcomes": counts}, indent=2))
        else:
            summary = ", ".join(f"{count}x {name}" for name, count in sorted(counts.items()))
            print(f"burst of {args.burst}: {ok} ok ({summary})")
        return 0 if ok == args.burst else 1

    on_event = None
    if args.progress:
        def on_event(event) -> None:
            print(event.describe(), flush=True)

    try:
        with ServeClient(**endpoint) as client:
            result = client.plan(target, on_event=on_event, **kwargs)
            outcome = client.last_outcome
    except ServeError as exc:
        print(f"submit: [{exc.code}] {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=str))
    else:
        detail = (
            f"T={result.writing_time:.0f}, chars={result.num_selected}, "
            f"{result.wall_seconds:.2f}s"
            if result.ok
            else f"{result.status}: {result.error}"
        )
        print(f"{result.case} {result.label}: {detail} [{outcome}]")
    if args.out and result.plan is not None:
        instance = (
            target if not isinstance(target, str)
            else build_instance(target, args.scale or default_scale())
        )
        save_plan(StencilPlan.from_dict(instance, result.plan), args.out)
        print(f"wrote plan to {args.out}")
    return 0 if result.ok else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    endpoint = _serve_endpoint(args, "watch")
    if endpoint is None:
        return 2
    try:
        with ServeClient(**endpoint) as client:
            if args.job_id is None:
                status = client.status()
                if args.json:
                    print(json.dumps(status, indent=2, sort_keys=True))
                else:
                    print(
                        f"uptime {status['uptime_seconds']:.1f}s, "
                        f"{status['connections']} connections, "
                        f"{status['inflight']} in flight, {status['queued']} queued"
                        + (", draining" if status.get("draining") else "")
                    )
                    requests = status.get("requests", {})
                    summary = ", ".join(
                        f"{count} {name}" for name, count in sorted(requests.items()) if count
                    )
                    print(f"requests: {summary or 'none yet'}")
                    store = status.get("store", {})
                    if store.get("enabled"):
                        print(
                            f"store: {store['hits']}/{store['probes']} hits "
                            f"({store['hit_rate']:.0%})"
                        )
                    for job_id, flight in sorted(status.get("flights", {}).items()):
                        print(
                            f"  {job_id[:16]} {flight['kind']} {flight['state']} "
                            f"(waiters={flight['waiters']}, subscribers={flight['subscribers']})"
                        )
                return 0
            for event in client.iter_events(args.job_id):
                print(event.describe(), flush=True)
            done = getattr(client, "last_done", None) or {}
            print(f"job {args.job_id[:16]} {done.get('status') or 'done'}")
            return 0
    except ServeError as exc:
        print(f"watch: [{exc.code}] {exc}", file=sys.stderr)
        return 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import run_worker
    from repro.errors import ValidationError

    try:
        summary = run_worker(
            args.broker,
            args.queue,
            worker_id=args.worker_id,
            poll_interval=args.poll,
            max_jobs=args.max_jobs,
            idle_exit=args.idle_exit,
            wait=args.wait,
        )
    except (ValidationError, OSError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        outcomes = ", ".join(
            f"{count} {name}"
            for name, count in sorted(summary.items())
            if name not in ("worker", "jobs") and count
        )
        print(
            f"worker {summary['worker']}: {summary['jobs']} jobs"
            + (f" ({outcomes})" if outcomes else "")
        )
    return 0


def _cmd_jobs_broker(args: argparse.Namespace) -> int:
    """`eblow jobs <spool-dir>`: live broker-queue inspection."""
    from repro.dist import Broker
    from repro.errors import ValidationError

    try:
        broker = Broker.open(args.journal, queue=args.queue)
    except ValidationError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1
    view = broker.inspect()
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0
    counts = view["counts"]
    summary = ", ".join(f"{counts[state]} {state}" for state in counts)
    print(f"queue {view['queue']!r} at {args.journal}: {summary}")
    if view["workers"]:
        print("\nworkers:")
        for worker in view["workers"]:
            liveness = "alive" if worker["alive"] else "DEAD"
            print(
                f"  {worker['worker']:<24} pid={worker['pid']:<8} "
                f"{liveness:<5} last heartbeat {worker['age']:.1f}s ago"
            )
    if view["leases"]:
        print("\nleases:")
        for lease in view["leases"]:
            flag = "  STALE" if lease["stale"] else ""
            print(
                f"  {lease['job_id'][:12]} epoch={lease['epoch']} "
                f"worker={lease['worker']} age={lease['age']:.1f}s{flag}"
            )
    if view["quarantined"]:
        print("\nquarantined:")
        for entry in view["quarantined"]:
            print(
                f"  {entry['job_id'][:12]} attempts={entry['attempts']} "
                f"error={entry['error']!r}"
            )
    if args.ops:
        from repro.runtime import JobJournal

        ledger = broker.ledger_path
        if ledger.exists():
            print(f"\nledger ({ledger}):")
            for record in JobJournal.read(ledger):
                detail = {
                    k: v
                    for k, v in record.items()
                    if k not in ("record", "v", "job_id", "op", "ts")
                }
                print(
                    f"  {str(record.get('job_id', '-'))[:12]:<12} "
                    f"{record.get('op', '?'):<14} {detail if detail else ''}"
                )
    stale = sum(1 for lease in view["leases"] if lease["stale"])
    return 0 if not stale and not view["quarantined"] else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.runtime import JobJournal

    if os.path.isdir(args.journal):
        return _cmd_jobs_broker(args)
    try:
        records = JobJournal.read(args.journal)
    except OSError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1
    state = JobJournal.replay(args.journal)
    if args.json:
        print(json.dumps(state, indent=2, sort_keys=True))
        return 0
    counts: dict[str, int] = {}
    for job_id, entry in state.items():
        counts[entry["state"]] = counts.get(entry["state"], 0) + 1
        line = (
            f"{job_id[:12]} {entry.get('case', '?'):>6} "
            f"{entry.get('label', entry.get('planner', '?')):<12} "
            f"{entry['state']:<11} attempts={entry['attempts']}"
        )
        if entry.get("error"):
            line += f" error={entry['error']!r}"
        print(line)
        if args.ops:
            for record in records:
                if record.get("job_id") != job_id:
                    continue
                detail = {
                    k: v
                    for k, v in record.items()
                    if k not in ("record", "v", "job_id", "op", "ts")
                }
                print(f"    {record.get('op', '?'):<14} {detail if detail else ''}")
    total = len(state)
    summary = ", ".join(f"{count} {name}" for name, count in sorted(counts.items()))
    print(f"\n{total} jobs ({summary or 'none'}) in {args.journal}")
    return 0 if counts.get("pending", 0) == 0 else 1


def _print_comparison(comparison, as_json: bool, reference: str = "e-blow") -> None:
    if as_json:
        print(json.dumps(comparison.to_dict(), indent=2, default=str))
    else:
        print(format_comparison_table(comparison, reference=reference))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "planners":
        return _cmd_planners(args)
    for command, handler in (
        ("plan", _cmd_plan),
        ("batch", _cmd_batch),
        ("portfolio", _cmd_portfolio),
    ):
        if args.command == command:
            if args.metrics_out:
                return _with_metrics_snapshot(args, handler)
            return handler(args)
    if args.command == "serve":
        # The daemon owns its registry for its whole lifetime and writes the
        # snapshot itself during the drain — never wrap it in
        # _with_metrics_snapshot (which would uninstall mid-serve).
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "table3":
        _print_comparison(run_table3(args.cases, args.scale, jobs=args.jobs), args.json)
        return 0
    if args.command == "table4":
        _print_comparison(run_table4(args.cases, args.scale, jobs=args.jobs), args.json)
        return 0
    if args.command == "table5":
        comparison = run_table5(
            cases_1d=[c for c in (args.cases or []) if c.startswith("1T")] or None,
            cases_2d=[c for c in (args.cases or []) if c.startswith("2T")] or None,
            jobs=args.jobs,
        )
        _print_comparison(comparison, args.json)
        return 0
    if args.command == "fig11":
        comparison = run_fig11_12(args.cases, args.scale, jobs=args.jobs)
        _print_comparison(comparison, args.json, reference="e-blow-1")
        return 0
    if args.command == "fig5":
        traces = run_fig5(tuple(args.cases) if args.cases else ("1M-1", "1M-2", "1M-3", "1M-4"), args.scale)
        for case, trace in traces.items():
            print(f"{case}: unsolved per iteration = {trace}")
        return 0
    if args.command == "fig6":
        histogram = run_fig6(args.case, args.scale)
        print(f"case {histogram['case']}: {histogram['num_values']} LP values")
        for lo, hi, count in zip(
            histogram["bin_edges"], histogram["bin_edges"][1:], histogram["counts"]
        ):
            print(f"  {lo:.1f} - {hi:.1f}: {count}")
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
