"""Pool execution: serial equivalence, streaming order, cleanup, events."""

import itertools
import multiprocessing
import os
import pickle
import stat
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import OptionField, PlannerHandle, register
from repro.evaluation import run_comparison
from repro.events import PlanEvent, emit
from repro.experiments import planners_table3
from repro.model import StencilPlan
from repro.obs import metrics as obs_metrics
from repro.runtime import (
    EventRelay,
    LocalScheduler,
    PlanJob,
    PlannerPool,
    PlannerSpec,
    ResultStore,
    grid_jobs,
    run_jobs,
)
from repro.runtime import jobs as jobs_module
from repro.runtime.relay import RelayQueue
from repro.workloads import build_instance, generate_1d_instance

register(
    PlannerHandle(
        "test-slow",
        "test-only planner that sleeps before planning",
        None,
        lambda options: _SlowPlanner(options.get("seconds", 1.0)),
        options=(OptionField("seconds", "float", 1.0),),
    )
)


class _SlowPlanner:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def plan(self, instance) -> StencilPlan:
        time.sleep(self.seconds)
        return StencilPlan.empty(instance)


class _ChattyPlanner:
    """Emits one ``iteration`` event per step, sleeping between steps."""

    def __init__(self, events: int, seconds: float) -> None:
        self.events = events
        self.seconds = seconds

    def plan(self, instance) -> StencilPlan:
        for index in range(self.events):
            emit("iteration", iteration=index)
            time.sleep(self.seconds)
        return StencilPlan.empty(instance)


class _WorkerKillingPlanner:
    def plan(self, instance):  # pragma: no cover — executed in the worker
        os._exit(17)


register(
    PlannerHandle(
        "test-kill-worker",
        "test-only planner that kills its worker process",
        None,
        lambda options: _WorkerKillingPlanner(),
    )
)


register(
    PlannerHandle(
        "test-chatty",
        "test-only planner that streams iteration events while it sleeps",
        None,
        lambda options: _ChattyPlanner(options.get("events", 50), options.get("seconds", 0.01)),
        options=(OptionField("events", "int", 50), OptionField("seconds", "float", 0.01)),
    )
)


def _put_many(queue, tag: int, count: int) -> None:
    # Module-level so that it pickles under every start method.
    for index in range(count):
        queue.put(
            PlanEvent(
                type="iteration", payload={"tag": tag, "i": index, "pid": os.getpid()}
            ).to_dict()
        )


_WALL_CLOCK_KEYS = ("runtime_seconds", "lp_solve_seconds", "stage_seconds")


def _strip_wall_clock(extra: dict) -> dict:
    return {k: v for k, v in extra.items() if k not in _WALL_CLOCK_KEYS}


def _strip_runtime(plan_dict: dict) -> dict:
    data = dict(plan_dict)
    data["stats"] = {
        k: v for k, v in data.get("stats", {}).items() if k not in _WALL_CLOCK_KEYS
    }
    return data


class TestSerialEquivalence:
    @pytest.mark.parametrize(
        "cases,planners",
        [
            (["1T-1", "1T-2", "1T-3", "1T-4", "1T-5"], None),  # SUITE_1T, Table 3 planners
            (["2T-1", "2T-2", "2T-3", "2T-4"],
             {"greedy": PlannerSpec("greedy-2d"), "e-blow": PlannerSpec("eblow-2d")}),
        ],
        ids=["suite-1t", "suite-2t"],
    )
    def test_pool_results_match_serial_run_comparison(self, cases, planners):
        planners = planners or planners_table3()
        serial = run_comparison(cases, planners, scale=1.0)
        pooled = run_comparison(cases, planners, scale=1.0, jobs=2)
        assert [r.case for r in pooled.rows] == [r.case for r in serial.rows]
        for srow, prow in zip(serial.rows, pooled.rows):
            assert list(prow.results) == list(srow.results)
            assert prow.instance_summary == srow.instance_summary
            for name in srow.results:
                s, p = srow.results[name], prow.results[name]
                assert p.writing_time == s.writing_time
                assert p.num_selected == s.num_selected
                # Everything except wall-clock counters must be identical.
                assert _strip_wall_clock(p.extra) == _strip_wall_clock(s.extra)

    def test_pool_plans_bit_identical_to_inline(self):
        jobs = grid_jobs(
            ["1T-1", "1T-2", "1T-3"],
            {"e-blow": PlannerSpec("eblow-1d"), "greedy": PlannerSpec("greedy-1d")},
            scale=1.0,
        )
        inline = run_jobs(jobs)
        pooled = run_jobs(jobs, scheduler=LocalScheduler(2))
        for a, b in zip(inline, pooled):
            assert a.job_id == b.job_id
            assert _strip_runtime(a.plan) == _strip_runtime(b.plan)
            assert a.writing_time == b.writing_time


class TestPooledPlansBitIdentical:
    @pytest.mark.parametrize(
        "planner,case",
        [
            ("greedy-1d", "1T-1"),
            ("rows-1d", "1T-2"),
            ("eblow-1d", "1T-3"),
            ("greedy-2d", "2T-1"),
            ("sa-2d", "2T-2"),
            ("eblow-2d", "2T-3"),
        ],
    )
    def test_inline_instance_jobs_match_serial_per_planner(self, planner, case):
        instance = build_instance(case, 1.0)
        jobs = grid_jobs([instance], {planner: PlannerSpec(planner)})
        serial = run_jobs(jobs)
        pooled = run_jobs(jobs, scheduler=LocalScheduler(2))
        wall = ("runtime_seconds", "lp_solve_seconds", "stage_seconds")
        for a, b in zip(serial, pooled):
            assert b.ok, b.error
            assert a.job_id == b.job_id
            assert a.writing_time == b.writing_time
            assert a.num_selected == b.num_selected
            stats_a = {k: v for k, v in a.plan["stats"].items() if k not in wall}
            stats_b = {k: v for k, v in b.plan["stats"].items() if k not in wall}
            assert stats_a == stats_b
            assert {k: v for k, v in a.plan.items() if k != "stats"} == {
                k: v for k, v in b.plan.items() if k != "stats"
            }


class TestPickledTransport:
    def test_unpickled_job_keeps_its_hashes_and_store_key(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        jobs = [
            PlanJob(spec=PlannerSpec("greedy-1d"), instance=build_instance("1T-1", 1.0)),
            PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-2", scale=1.0, label="b"),
        ]
        with PlannerPool(max_workers=2) as pool:
            futures = pool.submit(jobs)
            # submit hashed each job before its pickle was written.
            for job in jobs:
                assert {"job_id", "instance_hash", "config_hash"} <= set(vars(job))
            results = [pool.collect(job, future) for job, future in zip(jobs, futures)]
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        shipped = [pickle.loads(pickle.dumps(job)) for job in jobs]

        def no_rehash(payload):
            raise AssertionError("an unpickled job hashed itself again")

        monkeypatch.setattr(jobs_module, "_digest", no_rehash)
        for job, again in zip(jobs, shipped):
            assert again.job_id == job.job_id
            assert again.instance_hash == job.instance_hash
            assert again.config_hash == job.config_hash
            assert store.path_for(again) == store.path_for(job)


class TestStreaming:
    def test_scheduler_yields_in_submission_order(self):
        jobs = grid_jobs(
            ["1T-3", "1T-1", "1T-2"], {"e-blow": PlannerSpec("eblow-1d")}, scale=1.0
        )
        with PlannerPool(max_workers=2) as pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
        assert [result.case for result in results] == ["1T-3", "1T-1", "1T-2"]

    def test_empty_batch(self):
        with PlannerPool(max_workers=2) as pool:
            assert run_jobs([], scheduler=LocalScheduler(pool=pool)) == []


def _assert_no_worker_survives(before: set[int]) -> None:
    """No child process started since ``before`` (a set of pids) is alive."""
    deadline = time.monotonic() + 10
    while True:
        alive = [p.pid for p in multiprocessing.active_children() if p.pid not in before]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert alive == []


class TestCleanup:
    def test_no_worker_survives_pool_close(self):
        instance = build_instance("1T-1", 1.0)
        jobs = grid_jobs(
            [instance], {"g": PlannerSpec("greedy-1d"), "r": PlannerSpec("rows-1d")}
        )
        before = {p.pid for p in multiprocessing.active_children()}
        pool = PlannerPool(max_workers=2)
        with pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            assert all(r.ok for r in results)
        _assert_no_worker_survives(before)

    def test_no_worker_survives_worker_crash(self):
        instance = build_instance("1T-2", 1.0)
        crash = PlanJob(spec=PlannerSpec("test-kill-worker"), instance=instance)
        before = {p.pid for p in multiprocessing.active_children()}
        pool = PlannerPool(max_workers=2)
        with pool:
            [result] = run_jobs([crash], scheduler=LocalScheduler(pool=pool))
            assert not result.ok
            assert "broke" in (result.error or "")
        _assert_no_worker_survives(before)

    def test_shutdown_leaves_no_orphaned_workers(self):
        jobs = grid_jobs(["1T-1", "1T-2"], {"e-blow": PlannerSpec("eblow-1d")}, scale=1.0)
        pool = PlannerPool(max_workers=2)
        with pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            assert all(r.ok for r in results)
            workers = list(pool._executor._processes.values())
            assert workers
        assert pool._executor is None
        for process in workers:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_timeout_job_does_not_block_the_batch(self):
        jobs = [
            PlanJob(
                spec=PlannerSpec("test-slow", {"seconds": 30.0}),
                case="1T-1", scale=1.0, timeout=0.3, label="slow",
            ),
            PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-2", scale=1.0, label="fast"),
        ]
        start = time.perf_counter()
        pool = PlannerPool(max_workers=2)
        with pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            workers = list(pool._executor._processes.values())
        elapsed = time.perf_counter() - start
        assert results[0].status == "timeout"
        assert results[1].ok
        # The in-worker alarm must fire: nowhere near the 30s sleep.
        assert elapsed < 15.0
        for process in workers:
            process.join(timeout=10)
            assert not process.is_alive()


class TestWarmPoolReuse:
    def test_pool_survives_across_run_jobs_calls(self):
        jobs = grid_jobs(["1T-1", "1T-2"], {"g": PlannerSpec("greedy-1d")}, scale=1.0)
        with PlannerPool(max_workers=2) as pool:
            first = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            executor = pool._executor
            assert executor is not None
            second = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            # Same executor object: no respawn between batches.
            assert pool._executor is executor
        for a, b in zip(first, second):
            assert a.job_id == b.job_id
            assert a.writing_time == b.writing_time


class TestDispatch:
    def test_failure_does_not_poison_neighbours(self):
        jobs = [
            PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0, label="ok1"),
            PlanJob(
                spec=PlannerSpec("eblow-1d", {"ablated": "not-a-bool"}),
                case="1T-2",
                scale=1.0,
                label="bad",
            ),
            PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-3", scale=1.0, label="ok2"),
        ]
        with PlannerPool(max_workers=2) as pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
        assert [r.label for r in results] == ["ok1", "bad", "ok2"]
        assert results[0].ok and results[2].ok
        assert results[1].status == "error"


class TestPoolBreaks:
    def test_one_dead_worker_counts_as_one_break(self):
        jobs = [
            PlanJob(spec=PlannerSpec("test-slow", {"seconds": 5.0}), case=f"1T-{i}",
                    scale=1.0, label=f"slow{i}")
            for i in (1, 2)
        ]
        jobs.insert(1, PlanJob(spec=PlannerSpec("test-kill-worker"), case="1T-3", scale=1.0))
        jobs += [PlanJob(spec=PlannerSpec("greedy-1d"), case=f"1T-{i}", scale=1.0)
                 for i in (4, 5)]
        with obs_metrics.collecting() as registry:
            with PlannerPool(max_workers=2) as pool:
                results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
                breaks = pool.break_count
        assert len(results) == 5
        assert "broke" in results[1].error
        assert breaks == 1
        [series] = registry.snapshot()["metrics"]["pool_breaks_total"]["series"]
        assert series["value"] == 1

    def test_stale_broken_future_leaves_the_new_executor_alone(self):
        crash = PlanJob(spec=PlannerSpec("test-kill-worker"), case="1T-1", scale=1.0)
        sibling = PlanJob(spec=PlannerSpec("test-slow", {"seconds": 5.0}), case="1T-2",
                          scale=1.0)
        third = PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-3", scale=1.0)
        with PlannerPool(max_workers=2) as pool:
            crash_future, sibling_future = pool.submit([crash, sibling])
            assert "broke" in pool.collect(crash, crash_future).error
            [third_future] = pool.submit([third])
            replacement = pool._executor
            assert "broke" in pool.collect(sibling, sibling_future).error
            assert pool._executor is replacement
            assert pool.collect(third, third_future).ok
            assert pool.break_count == 1


class TestConcurrentSubmit:
    def test_threads_share_one_pool_and_lose_no_future(self):
        instances = [
            generate_1d_instance(num_characters=12, num_regions=2, seed=seed)
            for seed in range(24)
        ]
        failures = []

        def client(pool, chunk):
            for instance in chunk:
                job = PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance)
                [future] = pool.submit([job])
                result = pool.collect(job, future)
                if not result.ok:
                    failures.append(result.error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PlannerPool(max_workers=3) as pool:
                threads = [
                    threading.Thread(target=client, args=(pool, instances[index::6]))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 120
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in threads)
                # No job failed, and every entry was collected.
                assert failures == []
                assert pool._live == {}
                last = PlanJob(spec=PlannerSpec("greedy-1d"), instance=instances[0])
                [future] = pool.submit([last])
                assert pool.collect(last, future).ok
        finally:
            sys.setswitchinterval(interval)


def _by_tag(events) -> dict:
    grouped: dict = {}
    for event in events:
        grouped.setdefault(event.payload["tag"], []).append(event.payload)
    return grouped


class TestEventRelay:
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_every_put_before_close_arrives_in_worker_order(self, method):
        seen = []
        relay = EventRelay(seen.append)
        # More workers than cores where starting them is cheap.
        workers = 4 if method == "fork" else 2
        context = multiprocessing.get_context(method)
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as executor:
                futures = [executor.submit(_put_many, relay.queue, tag, 300) for tag in range(8)]
                for future in futures:
                    future.result(timeout=120)
                # The workers are alive and their frames may still sit in
                # the socket buffers: close() must deliver all of them.
                relay.close()
        finally:
            relay.close()
        grouped = _by_tag(seen)
        assert sorted(grouped) == list(range(8))
        for payloads in grouped.values():
            assert [p["i"] for p in payloads] == list(range(300))
            assert len({p["pid"] for p in payloads}) == 1
        # A worker runs its tasks one after another: its tags never interleave.
        for pid in {event.payload["pid"] for event in seen}:
            tags = [e.payload["tag"] for e in seen if e.payload["pid"] == pid]
            runs = [tag for tag, _ in itertools.groupby(tags)]
            assert len(runs) == len(set(runs))

    def test_concurrent_writers_never_interleave_frames(self):
        # A worker's heartbeat thread and planner thread share one
        # connection.  Frames larger than a socket buffer force partial
        # writes, and a short switch interval makes the threads race there.
        seen = []
        relay = EventRelay(seen.append)
        padding = "x" * 300_000

        def writer(tag: int) -> None:
            for index in range(10):
                relay.queue.put(
                    PlanEvent(
                        type="iteration", payload={"tag": tag, "i": index, "pad": padding}
                    ).to_dict()
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(tag,)) for tag in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            relay.close()
        grouped = _by_tag(seen)
        assert sorted(grouped) == list(range(4))
        for payloads in grouped.values():
            assert [p["i"] for p in payloads] == list(range(10))

    def test_fast_heartbeats_beside_planner_events_all_decode(self):
        seen = []
        job = PlanJob(
            spec=PlannerSpec("test-chatty", {"events": 200, "seconds": 0.0005}),
            case="1T-1", scale=1.0,
        )
        with EventRelay(seen.append) as relay:
            with PlannerPool(max_workers=2) as pool:
                [future] = pool.submit([job], event_queue=relay.queue, heartbeat=0.0005)
                result = pool.collect(job, future)
        assert result.ok
        planned = [event for event in seen if event.type != "heartbeat"]
        assert [event.seq for event in planned] == list(range(1, len(planned) + 1))
        assert sum(event.type == "iteration" for event in planned) == 200
        assert planned[-1].type == "finished"
        assert sum(event.type == "heartbeat" for event in seen) >= 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_warm_pool_across_relays_keeps_descriptors_flat(self):
        def open_fds(pid: int) -> int:
            return len(os.listdir(f"/proc/{pid}/fd"))

        with PlannerPool(max_workers=2) as pool:
            for batch in range(50):
                labels = {f"b{batch}-{index}" for index in range(2)}
                jobs = [
                    PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0, label=label)
                    for label in sorted(labels)
                ]
                seen = []
                results = run_jobs(
                    jobs, scheduler=LocalScheduler(pool=pool), on_event=seen.append
                )
                assert all(result.ok for result in results)
                # Each batch's events reach its own consumer only.
                assert {event.payload["label"] for event in seen} == labels
                if batch == 4:
                    pids = sorted(pool._executor._processes)
                    baseline = [open_fds(pid) for pid in pids]
            assert sorted(pool._executor._processes) == pids
            assert [open_fds(pid) for pid in pids] == baseline

    def test_job_completes_after_its_relay_closes(self):
        first = threading.Event()
        job = PlanJob(
            spec=PlannerSpec("test-chatty", {"events": 40, "seconds": 0.01}),
            case="1T-1", scale=1.0,
        )
        relay = EventRelay(lambda event: first.set())
        try:
            with PlannerPool(max_workers=2) as pool:
                [future] = pool.submit([job], event_queue=relay.queue)
                assert first.wait(timeout=60)
                relay.close()
                result = pool.collect(job, future)
        finally:
            relay.close()
        assert result.ok

    def test_forked_children_hold_no_relay_ends(self):
        # A child forked while a relay has an accepted connection must not
        # keep that connection's relay end open: when the relay closes, the
        # writer has to see it, not fill a buffer nobody drains.
        arrived = threading.Event()
        relay = EventRelay(lambda event: arrived.set())
        event = PlanEvent(type="stage").to_dict()
        child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
        refused = []

        def writer() -> None:
            try:
                while True:
                    relay.queue.put(event)
                    time.sleep(0.01)
            except OSError as exc:
                refused.append(exc)

        try:
            relay.queue.put(event)
            assert arrived.wait(timeout=30)  # the relay accepted this process
            child.start()
            relay.close()
            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            thread.join(timeout=10)
            assert refused
        finally:
            relay.close()
            if child.is_alive():
                child.terminate()
            child.join(timeout=30)

    def test_close_delivers_a_connection_not_yet_accepted(self):
        gate = threading.Event()
        seen = []

        def consumer(event) -> None:
            gate.wait(timeout=30)  # holds the drain thread on the first event
            seen.append(event.payload["tag"])

        relay = EventRelay(consumer)
        closer = threading.Thread(target=relay.close)
        try:
            _put_many(relay.queue, 0, 1)
            writer = multiprocessing.get_context("fork").Process(
                target=_put_many, args=(relay.queue, 1, 5)
            )
            writer.start()
            writer.join(timeout=30)
            assert writer.exitcode == 0  # it finished writing before close()
            closer.start()
            time.sleep(0.2)  # close() has woken the drain before it runs on
            gate.set()
            closer.join(timeout=30)
            assert not closer.is_alive()
        finally:
            gate.set()
            relay.close()
        assert seen == [0, 1, 1, 1, 1, 1]

    def test_close_leaves_no_socket_path_and_put_raises(self):
        relay = EventRelay(lambda event: None)
        path = relay.queue.path
        assert stat.S_ISSOCK(os.stat(path).st_mode)
        assert stat.S_IMODE(os.stat(os.path.dirname(path)).st_mode) == 0o700
        relay.close()
        relay.close()  # idempotent
        assert not os.path.exists(os.path.dirname(path))
        with pytest.raises(OSError):
            relay.queue.put(PlanEvent(type="stage").to_dict())

    def test_connection_without_the_token_is_dropped(self):
        seen = []
        relay = EventRelay(seen.append)
        try:
            impostor = RelayQueue(relay.queue.path, bytes(16))
            event = PlanEvent(type="stage").to_dict()
            with pytest.raises(OSError):
                for _ in range(500):
                    impostor.put(event)
                    time.sleep(0.01)
        finally:
            relay.close()
        assert seen == []
