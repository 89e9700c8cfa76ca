"""The repository benchmark: closed-loop planning workloads, checked end to end.

    python3 perfbench/run.py --workload plan-2d --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process
    python3 perfbench/run.py --self-test        # small cross-path check

See ``perfbench/README.md`` for the workloads, the metrics and the layer
table.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the run record (host state, request classes, checks and, at seed 0, the
trajectory report).  A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("plan-1d", "plan-2d", "serve", "serve-broker")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Rounds (one instance per family) every untraced plan-* run completes;
#: their plans are the ``writing_time`` reference set.
REFERENCE_ROUNDS = {"plan-1d": 1, "plan-2d": 3}
#: Fresh instances per connection and segment of the serve schedule; each is
#: repeated once later in the segment, after one instance both connections
#: send at the segment start.
FRESH_PER_SEGMENT = 7
#: Segments of the fixed-work (traced) serve run; every serve run completes
#: at least these, and their distinct instances are the serve
#: ``writing_time`` reference set.
FIXED_SEGMENTS = 16
TRAJECTORY_FILE = "BENCH_20260808.json"

END_TO_END = {  # name -> unit: the result of every untraced run
    "setup_s": "s",
    "plans_per_s": "plans/s",
    "computed_mean_ms": "ms",
    "writing_time": "shots",
    "ok_ratio": "ratio",
    "rss_peak_mb": "MiB",
}
PER_LAYER = {  # name -> unit: the result of every traced run
    "solver.milp.s": "s", "solver.milp.calls": "count", "solver.milp.nodes": "count",
    "solver.milp.free_vars": "count", "solver.lp.s": "s", "solver.lp.calls": "count",
    "onedim.successive_rounding.self_s": "s", "onedim.fast_convergence.self_s": "s",
    "onedim.refinement.s": "s", "onedim.post_swap.s": "s",
    "onedim.post_insertion.self_s": "s", "matching.s": "s", "matching.calls": "count",
    "core.profits.s": "s", "core.profits.calls": "count", "twodim.prefilter.s": "s",
    "twodim.clustering.s": "s", "twodim.clusters": "count", "floorplan.anneal.s": "s",
    "floorplan.anneal.moves": "count", "floorplan.anneal.accepted": "count",
    "floorplan.anneal.us_per_move": "us", "api.facade.self_ms": "ms",
    "runtime.jobs.execute.self_ms": "ms", "runtime.jobs.execute_ms": "ms",
    "runtime.store.get_ms": "ms", "runtime.store.put_ms": "ms",
    "runtime.store.get.calls": "count", "runtime.store.put.calls": "count",
    "runtime.store.hit_ratio": "ratio", "runtime.pool.submit_ms": "ms",
    "runtime.pool.collect_ms": "ms", "dist.run_ms": "ms",
    "dist.ledger.queued": "count", "dist.ledger.leased": "count",
    "dist.ledger.done": "count", "dist.ledger.requeued": "count",
    "dist.ledger.lease_expired": "count", "dist.ledger.stale_discarded": "count",
    "dist.ledger.quarantined": "count", "dist.ledger.worker_dead": "count",
    "dist.claim_conflicts": "count", "serve.overhead_ms": "ms",
    "serve.outcome.computed": "count", "serve.outcome.coalesced": "count",
    "serve.outcome.store_hit": "count", "serve.outcome.rejected": "count",
    "trace.overhead_ratio": "ratio",
}
LEDGER_OPS = [name.rsplit(".", 1)[1] for name in PER_LAYER if name.startswith("dist.ledger.")]


def record(kind: str, **fields) -> None:
    """Print one line of the run record."""
    print(json.dumps({"record": kind, **fields}, default=str), flush=True)


def host_state() -> dict:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return {"nproc": os.cpu_count(), "loadavg": handle.read().strip()}


def p50_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def ms(seconds: float) -> dict:
    """A run-record latency with its unit."""
    return {"value": seconds * 1e3, "unit": "ms"}


def normalised(raw: dict, clock: HostClock) -> dict:
    """The timed metrics at nominal host speed (see ``hostspeed.py``).

    Records the raw figures and the clock in the run record.
    """
    record("host-speed", **clock.summary(), raw=raw)
    factor = clock.factor()
    return {
        "setup_s": raw["setup_s"] * factor,
        "plans_per_s": raw["plans_per_s"] / factor,
        "computed_mean_ms": raw["computed_mean_ms"] * factor,
    }


def family_mean_ms(samples) -> float:
    """Mean latency of each input family, combined by geometric mean.

    Not a median: on serve-broker the spool polling puts each family's
    latencies on two modes about 50 ms apart, and the median jumps between
    them from run to run.  Not one statistic over the whole mix either: it
    lands between the clusters of families with different plan costs.
    ``samples`` are ``(instance, seconds)`` pairs.
    """
    from inputs import family_of

    by_family: dict[str, list[float]] = {}
    for instance, seconds in samples:
        by_family.setdefault(family_of(instance), []).append(seconds)
    if not by_family:
        return 0.0
    return statistics.geometric_mean(statistics.fmean(v) for v in by_family.values()) * 1e3


class Checks:
    """The correctness checks of one run; any failure makes it incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def validate(result, instance, checks: Checks) -> bool:
    """Re-validate a returned plan; recompute its writing time independently.

    ``result`` is None for a request that raised instead of answering.
    """
    from repro import evaluate_plan

    if not checks.expect(result is not None, f"{instance.name}: the request raised"):
        return False
    if not checks.expect(result.ok, f"{instance.name}: {result.status}: {result.error}"):
        return False
    try:
        plan = result.plan_object(instance)
        plan.validate()
    except Exception as exc:  # noqa: BLE001 — any invalid plan fails the check
        return checks.expect(False, f"{instance.name}: invalid plan: {exc}")
    total = evaluate_plan(plan).total
    return checks.expect(
        total == result.writing_time,
        f"{instance.name}: writing time {result.writing_time} != recomputed {total}",
    )


def warm_up(kinds, plan=None) -> None:
    """Plan one tiny instance per kind (with ``repro.plan`` unless ``plan``)."""
    import repro
    from inputs import planner_for, warmup_instances

    for instance in warmup_instances(kinds):
        (plan or repro.plan)(instance, planner=planner_for(instance))


def layer_metrics(spans, results, extra: dict) -> dict:
    """Every per-layer metric: spans, plan stats of the computed results, extras."""
    from layers import span_metrics

    results = [result for result in results if result is not None]
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(span_metrics(spans))
    stats = [result.plan.get("stats", {}) for result in results if result.plan]
    moves = sum(s.get("annealing_moves", 0) for s in stats)
    metrics.update({
        "twodim.clusters": sum(s.get("num_clusters", 0) for s in stats),
        "floorplan.anneal.moves": moves,
        "floorplan.anneal.accepted": sum(s.get("annealing_accepted", 0) for s in stats),
        "floorplan.anneal.us_per_move": (
            metrics["floorplan.anneal.s"] / moves * 1e6 if moves else 0.0
        ),
        "runtime.jobs.execute_ms": p50_ms([r.wall_seconds for r in results]),
    })
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------- #
# plan-1d / plan-2d: one client calling repro.plan inline
# ---------------------------------------------------------------------- #
def plan_kinds(workload: str) -> list[str]:
    return ["1T"] if workload == "plan-1d" else ["2T"]


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until its warm-up plan returns."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {workload} failed")
    return elapsed


def busy_seconds(done) -> float:
    return sum(latency for _, _, latency in done)


def plan_one(instance, checks: Checks):
    """Plan inline; a call that raises is a failed attempt (result None)."""
    import repro
    from inputs import planner_for

    start = time.perf_counter()
    try:
        result = repro.plan(instance, planner=planner_for(instance))
    except Exception:  # noqa: BLE001 — reported as a failed check
        checks.expect(False, traceback.format_exc())
        result = None
    return instance, result, time.perf_counter() - start


def timed_setups(setup, clock: HostClock) -> list[float]:
    """``SETUPS`` set-ups, with a host-speed sample before and after each."""
    clock.sample()
    setups = []
    for _ in range(SETUPS):
        setups.append(setup())
        clock.sample()
    return setups


def plan_all(instances, checks: Checks, clock: HostClock, done: list, recorder=None) -> None:
    """Plan each instance inline, with a host-speed sample before each."""
    for instance in instances:
        clock.sample()
        if recorder is not None:
            recorder.request_id = f"{instance.name}#{len(done)}"
        done.append(plan_one(instance, checks))


def run_plan(workload: str, seed: int, seconds: float, trace: bool, checks: Checks) -> dict:
    from inputs import FAMILIES, family_instance

    def round_of(index):
        return [family_instance(name, seed, index) for name in FAMILIES[workload]]

    # One client on one CPU: the host-speed samples measure the CPU the
    # plans run on (the set-up probes inherit the pinning).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = HostClock()  # one per run: set-ups and plans
    setups = [] if trace else timed_setups(lambda: probe_setup(workload), clock)
    warm_up(plan_kinds(workload))
    reference = round_of(0)  # at seed 0: the bench-scale suite cases
    done: list = []
    extra = {}
    if trace:
        import layers

        untraced_clock, untraced = HostClock(), []
        plan_all(reference, checks, untraced_clock, untraced)
        untraced_clock.sample()
        recorder = layers.Recorder()
        layers.install(recorder)
        plan_all(reference, checks, clock, done, recorder)
        clock.sample()
        overhead = (busy_seconds(untraced) * untraced_clock.factor()
                    / (busy_seconds(done) * clock.factor()))
        extra = layer_metrics(recorder.spans, [r for _, r, _ in done],
                              {"trace.overhead_ratio": overhead})
    else:
        # Closed loop over whole rounds (one instance per family), so every
        # run plans the same family mix: the reference rounds, then fresh
        # rounds until the time is up.  Only the plans are timed.
        plan_all(reference, checks, clock, done)
        index = 0
        while index + 1 < REFERENCE_ROUNDS[workload] or busy_seconds(done) < seconds:
            index += 1
            plan_all(round_of(index), checks, clock, done)
        clock.sample()
    wall = busy_seconds(done)

    ok = sum(validate(result, instance, checks) for instance, result, _ in done)
    latencies = [lat for _, _, lat in done]
    rounds = 1 if trace else REFERENCE_ROUNDS[workload]
    reference_results = [result for _, result, _ in done[: rounds * len(reference)]]
    if seed == 0:
        report_trajectory(workload, reference, reference_results)
    record("requests", computed=len(done), latency_p50_ms=ms(statistics.median(latencies)))
    raw = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "plans_per_s": ok / wall,
        "computed_mean_ms": family_mean_ms((instance, lat) for instance, _, lat in done),
    }
    metrics = {
        **normalised(raw, clock),
        "writing_time": sum(r.writing_time for r in reference_results if r is not None),
        "ok_ratio": ok / len(done),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **extra,
    }
    return {"attempted": len(done), "ok": ok, "metrics": metrics}


def report_trajectory(workload: str, instances, results) -> None:
    """Seed 0: each suite cell's writing time beside the trajectory file's."""
    path = ROOT / TRAJECTORY_FILE
    if not path.is_file():
        return
    table = "table3" if workload == "plan-1d" else "table4"
    with open(path, encoding="utf-8") as handle:
        cells = {b["name"]: b.get("extra_info", {}) for b in json.load(handle)["benchmarks"]}
    rows = []
    for instance, result in zip(instances, results):
        old = cells.get(f"test_{table}_cell[eblow-{instance.name}]", {}).get("writing_time")
        rows.append({"case": instance.name, "writing_time": getattr(result, "writing_time", None),
                     TRAJECTORY_FILE: old})
    record("trajectory", cells=rows,
           matching=sum(row["writing_time"] == row[TRAJECTORY_FILE] for row in rows))


# ---------------------------------------------------------------------- #
# serve / serve-broker: two closed-loop connections to an eblow serve daemon
# ---------------------------------------------------------------------- #
def process_table() -> dict[int, tuple[int, str]]:
    """pid -> (parent pid, state) of every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for child, (parent, _) in process_table().items():
        children.setdefault(parent, []).append(child)
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def shm_segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("eblow-*")}


class Daemon:
    """One ``eblow serve`` subprocess with its own socket, store and spool."""

    def __init__(self, workdir: Path, broker: bool, span_dir: Path | None = None) -> None:
        workdir.mkdir(parents=True)
        self.socket = str((workdir / "s.sock").relative_to(ROOT))
        self.spool = workdir / "spool" if broker else None
        args = ["serve", "--socket", self.socket, "--cache-dir", str(workdir / "store")]
        if broker:
            args += ["--broker", str(self.spool), "--workers", "1"]
        if span_dir is not None:
            command = [sys.executable, str(HERE / "launch.py"), str(span_dir), *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        self._shm_before = shm_segments()
        self._stderr = open(workdir / "stderr.txt", "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if "listening" not in line:
            self.stop(Checks())
            raise RuntimeError(f"eblow serve did not start: {line!r}")

    def status(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient(socket=self.socket) as client:
            return client.status()

    def workers(self) -> list[int]:
        return descendants(self.proc.pid)

    def stop(self, checks: Checks) -> None:
        """SIGTERM, wait, and check that nothing the daemon made outlives it."""
        workers = self.workers()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        checks.expect(code == 0, f"daemon exited with {code}")
        deadline = time.monotonic() + 10
        while True:
            table = process_table()
            alive = [p for p in workers if p in table and table[p][1] != "Z"]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        checks.expect(not alive, f"daemon children outlived it: {alive}")
        checks.expect(not os.path.exists(self.socket), "daemon socket left behind")
        leaked = shm_segments() - self._shm_before
        checks.expect(not leaked, f"/dev/shm segments left behind: {sorted(leaked)}")
        if self.spool is not None:
            leases = [p.name for p in self.spool.glob("*/leased/*.json")]
            checks.expect(not leases, f"broker leases left behind: {leases}")

    def ledger(self) -> list[dict]:
        records = []
        for path in self.spool.glob("*/ledger.jsonl"):
            with open(path, encoding="utf-8") as handle:
                records += [json.loads(line) for line in handle if line.strip()]
        return records


def start_daemon(workdir: Path, broker: bool, span_dir: Path | None = None,
                 clock: HostClock | None = None):
    """Start a daemon and warm it up; returns it, its set-up seconds and the
    job ids of the warm-up plans.  A host-speed sample follows the set-up."""
    from repro.serve import ServeClient

    daemon = Daemon(workdir, broker, span_dir)
    try:
        with ServeClient(socket=daemon.socket) as client:
            job_ids = []

            def plan(instance, planner):
                result = client.plan(instance, planner=planner)
                job_ids.append(client.last_job_id)
                return result

            warm_up(["1T", "2T"], plan)
    except BaseException:
        daemon.stop(Checks())
        raise
    setup = time.perf_counter() - daemon.started
    if clock is not None:
        clock.sample()
    return daemon, setup, set(job_ids)


def segment_order(shared, fresh) -> list:
    """One connection's segment: the shared instance, then every fresh
    instance, each repeated once after the next fresh one."""
    order = [(shared, "shared"), (fresh[0], "fresh")]
    for k in range(1, len(fresh)):
        order += [(fresh[k], "fresh"), (fresh[k - 1], "repeat")]
    return order + [(shared, "repeat"), (fresh[-1], "repeat")]


def drive(socket: str, seed: int, seconds: float | None, segments: int | None,
          clock: HostClock):
    """Two closed-loop connections; returns (requests, wall seconds, errors).

    Both connections meet at a barrier before each segment; its action
    takes a host-speed sample, decides, once for both, whether to stop, and
    draws the next segment.  The action is not timed.
    """
    from inputs import TinyStream, planner_for
    from repro.serve import ServeClient

    streams = [TinyStream(seed, 0), TinyStream(seed, 1)]
    shared_stream = TinyStream(seed, 2)
    state = {"stop": False, "segment": -1, "order": None, "untimed": 0.0}
    requests: list[list] = [[], []]
    errors: list[str] = []
    start = time.perf_counter()

    def next_segment() -> None:
        began = time.perf_counter()
        clock.sample()
        if seconds is not None:
            state["stop"] = (began - start - state["untimed"] >= seconds
                             and state["segment"] + 1 >= FIXED_SEGMENTS)
        else:
            state["stop"] = state["segment"] + 1 >= segments
        if not state["stop"]:
            state["segment"] += 1
            shared = shared_stream.next("2T", size=12)
            state["order"] = [
                segment_order(shared, [s.next() for _ in range(FRESH_PER_SEGMENT)])
                for s in streams
            ]
        state["untimed"] += time.perf_counter() - began

    barrier = threading.Barrier(2, action=next_segment)

    def connection(index: int) -> None:
        try:
            with ServeClient(socket=socket) as client:
                while True:
                    barrier.wait(timeout=300)
                    if state["stop"]:
                        return
                    segment = state["segment"]
                    for instance, role in state["order"][index]:
                        began = time.perf_counter()
                        try:
                            result = client.plan(instance, planner=planner_for(instance),
                                                 check=False)
                        except Exception:
                            # Counted as attempted and failed; then the run stops.
                            requests[index].append((instance, role, "raised",
                                                    time.perf_counter() - began, None,
                                                    segment))
                            raise
                        requests[index].append((instance, role, client.last_outcome,
                                                time.perf_counter() - began, result, segment))
        except threading.BrokenBarrierError:
            pass
        except Exception:  # noqa: BLE001 — reported as a failed check
            errors.append(traceback.format_exc())
            barrier.abort()

    threads = [threading.Thread(target=connection, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start - state["untimed"]
    return requests[0] + requests[1], wall, errors


def serve_session(workdir, broker, seed, checks, clock: HostClock, *, seconds=None,
                  segments=None, span_dir=None):
    """Start a daemon, drive it, check it, stop it; returns what was measured."""
    daemon, setup, warmup_ids = start_daemon(workdir, broker, span_dir, clock)
    try:
        requests, wall, errors = drive(daemon.socket, seed, seconds, segments, clock)
        status = daemon.status()
        rss = peak_rss_mb([daemon.proc.pid, *daemon.workers()])
    finally:
        daemon.stop(checks)
    for error in errors:
        checks.expect(False, f"client error: {error}")
    ledger = daemon.ledger() if broker else []
    counts = dict(status["requests"])
    counts["computed"] -= len(warmup_ids)
    return {"setup": setup, "requests": requests, "wall": wall, "clock": clock,
            "counts": counts, "rss": rss,
            "ledger": [r for r in ledger if r.get("job_id") not in warmup_ids],
            "warmup_ids": warmup_ids}


def check_serve(session, checks: Checks) -> int:
    """Validate every answer; compare the daemon's counters with the mix sent."""
    requests = session["requests"]
    ok = sum(validate(result, instance, checks) for instance, _, _, _, result, _ in requests)
    expected = {"computed": 0, "coalesced": 0, "store_hit": 0}
    seen = {"computed": 0, "coalesced": 0, "store_hit": 0}
    answers: dict[int, list] = {}
    for instance, role, outcome, _, result, _ in requests:
        expected[{"fresh": "computed", "repeat": "store_hit"}.get(role, "computed")] += 1
        seen[outcome] = seen.get(outcome, 0) + 1
        if result is not None:
            answers.setdefault(id(instance), []).append(result)
    shared = sum(1 for _, role, *_ in requests if role == "shared") // 2
    expected["computed"] -= shared
    expected["coalesced"] += shared
    checks.expect(seen == expected, f"request outcomes {seen} != generated mix {expected}")
    checks.expect(session["counts"] == {**expected, "rejected": 0, "error": 0},
                  f"daemon status counters {session['counts']} != generated mix {expected}")
    for results in answers.values():
        first = results[0]
        checks.expect(
            all(r.plan == first.plan and r.writing_time == first.writing_time for r in results),
            f"{first.case}: a repeated or coalesced answer differs from the first",
        )
    return ok


def run_serve(workload: str, seed: int, seconds: float, trace: bool, checks: Checks,
              workdir: Path) -> dict:
    broker = workload == "serve-broker"
    if trace:
        untraced = serve_session(workdir / "untraced", broker, seed, checks, HostClock(),
                                 segments=FIXED_SEGMENTS)
        check_serve(untraced, checks)
        span_dir = workdir / "spans"
        span_dir.mkdir()
        session = serve_session(workdir / "traced", broker, seed, checks, HostClock(),
                                segments=FIXED_SEGMENTS, span_dir=span_dir)
        setups = []
    else:
        clock = HostClock()  # one per run: set-ups and the timed session
        clock.sample()
        setups = []
        for index in range(SETUPS - 1):
            daemon, setup, _ = start_daemon(workdir / f"setup{index}", broker, clock=clock)
            daemon.stop(checks)
            setups.append(setup)
        session = serve_session(workdir / "timed", broker, seed, checks, clock, seconds=seconds)
        setups.append(session["setup"])
    ok = check_serve(session, checks)
    requests = session["requests"]
    by_outcome: dict[str, list[float]] = {}
    for _, _, outcome, latency, _, _ in requests:
        by_outcome.setdefault(outcome, []).append(latency)
    everything = sorted(latency for _, _, _, latency, _, _ in requests)
    p90 = statistics.quantiles(everything, n=10, method="inclusive")[8]
    record("requests", **{k: len(v) for k, v in by_outcome.items()},
           computed_p50_ms=ms(statistics.median(by_outcome.get("computed", [0.0]))),
           hit_p50_ms=ms(statistics.median(by_outcome.get("store_hit", [0.0]))),
           latency_p90_ms=ms(p90), samples=len(everything),
           samples_beyond_p90=sum(1 for v in everything if v > p90))
    reference = {}
    for instance, role, _, _, result, segment in requests:
        if role != "repeat" and segment < FIXED_SEGMENTS and result is not None:
            reference[id(instance)] = result.writing_time
    checks.expect(len(reference) == FIXED_SEGMENTS * (2 * FRESH_PER_SEGMENT + 1),
                  "the writing-time reference segments did not all complete")
    raw = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "plans_per_s": ok / session["wall"],
        "computed_mean_ms": family_mean_ms(
            (instance, latency) for instance, _, outcome, latency, _, _ in requests
            if outcome == "computed"
        ),
    }
    metrics = {
        **normalised(raw, session["clock"]),
        "writing_time": sum(reference.values()),
        "ok_ratio": ok / len(requests),
        "rss_peak_mb": session["rss"],
    }
    if trace:
        from layers import read_sink

        computed = [(latency, result) for _, _, outcome, latency, result, _ in requests
                    if outcome == "computed"]
        spans = [s for s in read_sink(span_dir) if s["rid"] not in session["warmup_ids"]]
        ops = [r.get("op") for r in session["ledger"]]
        leased = [r["job_id"] for r in session["ledger"] if r.get("op") == "leased"]
        extra = {f"dist.ledger.{op}": ops.count(op) for op in LEDGER_OPS}
        extra.update({f"serve.outcome.{k}": session["counts"][k]
                      for k in ("computed", "coalesced", "store_hit", "rejected")})
        extra.update({
            "dist.claim_conflicts": len(leased) - len(set(leased)),
            "serve.overhead_ms": p50_ms([lat - r.wall_seconds for lat, r in computed]),
            "trace.overhead_ratio": (
                untraced["wall"] * untraced["clock"].factor() * len(requests)
                / (session["wall"] * session["clock"].factor() * len(untraced["requests"]))
            ),
        })
        metrics.update(layer_metrics(spans, [result for _, result in computed], extra))
    return {"attempted": len(requests), "ok": ok, "metrics": metrics}


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # .bench_run, unless another run still uses it
    except OSError:
        pass


def run_workload(args) -> int:
    # A terminated benchmark still stops its daemon (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    checks = Checks()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    record("host", phase="start", workload=args.workload, seed=args.seed,
           seconds=args.seconds, trace=args.trace, **host_state())
    try:
        if args.workload.startswith("plan-"):
            outcome = run_plan(args.workload, args.seed, args.seconds, bool(args.trace), checks)
        else:
            outcome = run_serve(args.workload, args.seed, args.seconds, bool(args.trace),
                                checks, workdir)
    finally:
        remove_workdir(workdir)
    record("host", phase="end", **host_state())
    record("checks", failures=checks.failures)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": outcome["attempted"],
        "failed": outcome["attempted"] - outcome["ok"],
        "metrics": {n: {"value": outcome["metrics"][n], "unit": u} for n, u in names.items()},
    }), flush=True)
    return 0 if not checks.failures else 1


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """Run one workload in a fresh process; pass its record through."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        code, result = run_child(workload, args.seed, args.seconds, args.trace)
        if result is None:
            correct = False
            continue
        correct = correct and code == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}/{name}"] = metric
            print(f"{workload:<13} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def self_test() -> int:
    """Small cross-path check: seed-0 inputs are the suite; inline, serve and
    serve-broker plans have identical writing times; every workload prints
    every metric with its unit."""
    import repro
    from inputs import FAMILIES, TinyStream, family_instance, planner_for
    from repro.serve import ServeClient
    from repro.workloads import build_instance

    checks = Checks()
    for names in FAMILIES.values():
        for name in names:
            checks.expect(family_instance(name, 0).to_dict() == build_instance(name, 0.06).to_dict(),
                          f"seed 0 does not rebuild suite case {name}")
    stream = TinyStream(7, 0)
    instances = [stream.next() for _ in range(6)]
    instances += [family_instance("1M-1", 0), family_instance("2D-4", 0)]
    paths = {"inline": [repro.plan(i, planner=planner_for(i)).writing_time for i in instances]}
    workdir = ROOT / ".bench_run" / f"self-test-{os.getpid()}"
    try:
        for workload in ("serve", "serve-broker"):
            daemon = Daemon(workdir / workload, broker=workload == "serve-broker")
            try:
                with ServeClient(socket=daemon.socket) as client:
                    paths[workload] = [client.plan(i, planner=planner_for(i)).writing_time
                                       for i in instances]
            finally:
                daemon.stop(checks)
    finally:
        remove_workdir(workdir)
    record("cross-path", cases=[i.name for i in instances], **paths)
    checks.expect(paths["inline"] == paths["serve"] == paths["serve-broker"],
                  "inline, serve and serve-broker writing times differ")
    runs = [(w, 0) for w in WORKLOADS] + [("plan-2d", 1), ("serve", 1)]
    for workload, trace in runs:
        code, result = run_child(workload, 0, 1, trace)
        names = PER_LAYER if trace else END_TO_END
        checks.expect(code == 0 and result is not None and result["correct"],
                      f"{workload} --trace {trace} failed")
        if result is not None:
            checks.expect(
                {n: m["unit"] for n, m in result["metrics"].items()} == names,
                f"{workload} --trace {trace} printed other metrics or units",
            )
    record("checks", failures=checks.failures)
    print("self-test " + ("passed" if not checks.failures else "FAILED"))
    return 0 if not checks.failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no planner sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        warm_up(plan_kinds(args.workload))
        print("ready", flush=True)
        return 0
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
