"""The serve daemon end to end: coalescing, admission, streaming, status.

Every test hosts a real :class:`PlanServer` on a background thread
(:func:`start_in_thread`) with a per-test Unix socket and cache directory,
and drives it with the blocking :class:`ServeClient` — the same path the
CLI verbs use.  Deterministic in-flight windows come from the runtime's
fault-injection hooks (``REPRO_FAULTS`` delay specs, applied in the worker
at job start), not from sleeps.
"""

import asyncio
import json
import socket as socketlib
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

from repro.api import OptionField, PlannerHandle, register
from repro.model import StencilPlan
from repro.runtime import PlanJob, PlannerSpec, execute_job
from repro.serve import ServeClient, ServeConfig, ServeError, start_in_thread
from repro.serve.server import EventChannel
from repro.workloads import build_instance

CASE = "1T-1"
SCALE = 0.12
#: Fields of a JobResult that must be identical however the plan was
#: computed (provenance fields — worker pid, wall clock — legitimately vary).
DETERMINISTIC_FIELDS = ("status", "writing_time", "num_selected")


def deterministic_plan(result):
    """The plan artifact with its wall-clock timing stats stripped."""
    plan = dict(result.plan or {})
    plan["stats"] = {
        key: value
        for key, value in plan.get("stats", {}).items()
        if "seconds" not in key
    }
    return plan


@contextmanager
def serving(tmp_path, **overrides):
    options = dict(
        socket=str(tmp_path / "serve.sock"),
        workers=1,
        cache_dir=str(tmp_path / "cache"),
    )
    options.update(overrides)
    with start_in_thread(ServeConfig(**options)) as handle:
        yield handle


def delay_fault(monkeypatch, seconds, match=CASE):
    monkeypatch.setenv(
        "REPRO_FAULTS", json.dumps([{"kind": "delay", "seconds": seconds, "match": match}])
    )


class _SleepingPlanner:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def plan(self, instance) -> StencilPlan:
        time.sleep(self.seconds)
        return StencilPlan.empty(instance)


register(
    PlannerHandle(
        "test-serve-sleep",
        "test-only planner that sleeps before planning",
        None,
        lambda options: _SleepingPlanner(options.get("seconds", 20.0)),
        options=(OptionField("seconds", "float", 20.0),),
    )
)

#: One entrant that sleeps far past every bound the tests below assert.
SLEEPER = {"sleep": {"planner": "test-serve-sleep", "options": {"seconds": 20.0}}}


def wait_for_flight(client, timeout=10.0):
    """Poll ``status`` until a flight is in the table; return its job id."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        flights = client.status()["flights"]
        if flights:
            return next(iter(flights))
        time.sleep(0.02)
    raise AssertionError("no flight appeared within the timeout")


class TestPlanRoundTrip:
    def test_plan_matches_a_serial_run(self, tmp_path):
        events = []
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                result = client.plan(CASE, scale=SCALE, on_event=events.append)
                assert client.last_outcome == "computed"
        assert result.ok
        serial = execute_job(PlanJob(spec=PlannerSpec("eblow"), case=CASE, scale=SCALE))
        for field in DETERMINISTIC_FIELDS:
            assert getattr(result, field) == getattr(serial, field), field
        assert deterministic_plan(result) == deterministic_plan(serial)
        types = [event.type for event in events]
        assert types[0] == "started"
        assert types[-1] == "finished"

    def test_resubmit_is_a_store_hit(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                first = client.plan(CASE, scale=SCALE)
                assert client.last_outcome == "computed"
                second = client.plan(CASE, scale=SCALE)
                assert client.last_outcome == "store_hit"
                status = client.status()
        assert not first.cache_hit
        assert second.cache_hit
        assert second.writing_time == first.writing_time
        requests = {k: v for k, v in status["requests"].items() if v}
        assert requests == {"computed": 1, "store_hit": 1}
        assert status["store"]["hits"] == 1
        assert status["store"]["hit_rate"] == pytest.approx(0.5)

    def test_tcp_endpoint(self, tmp_path):
        with serving(tmp_path, socket=None, port=0) as handle:
            host, port = handle.address
            with ServeClient(host=host, port=port) as client:
                assert client.plan(CASE, scale=SCALE, planner="greedy-1d").ok

    def test_unknown_planner_is_a_bad_request(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                with pytest.raises(ServeError) as info:
                    client.plan(CASE, scale=SCALE, planner="no-such-planner")
        assert info.value.code == "bad_request"

    def test_failed_plans_raise_with_check(self, tmp_path):
        from repro.api import PlanningError

        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                # a 1D planner on a 1D case is fine; force a planner error by
                # requesting the 2D engine on a 1D case.
                with pytest.raises((PlanningError, ServeError)):
                    client.plan(CASE, scale=SCALE, planner="eblow-2d")
                result = client.plan(
                    CASE, scale=SCALE, planner="eblow-2d", check=False
                )
        assert not result.ok

    def test_batch_verb(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                results = client.batch(
                    [
                        {"planner": "greedy-1d", "case": "1T-1", "scale": SCALE},
                        {"planner": "rows-1d", "case": "1T-2", "scale": SCALE},
                    ]
                )
        assert [r.ok for r in results] == [True, True]
        assert [r.case for r in results] == ["1T-1", "1T-2"]

    def test_batch_accepts_plan_jobs(self, tmp_path):
        jobs = [
            PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=SCALE),
            PlanJob(spec=PlannerSpec("rows-1d"), instance=build_instance("1T-2", 1.0)),
        ]
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                results = client.batch(jobs)
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        assert [r.writing_time for r in results] == [
            execute_job(job).writing_time for job in jobs
        ]

    def test_portfolio_verb(self, tmp_path):
        with serving(tmp_path, max_inflight=2) as handle:
            with ServeClient(socket=handle.address) as client:
                outcome = client.portfolio(
                    CASE,
                    {"greedy": "greedy-1d", "rows": "rows-1d"},
                    scale=SCALE,
                )
        assert outcome["ok"]
        assert outcome["winner"] is not None
        assert outcome["winner"]["label"] in ("greedy", "rows")


class TestOneWorkerPortfolio:
    """A one-worker race runs its entrant in the daemon's pool worker.

    Run in the daemon's compute thread instead, the entrant's alarm cannot
    arm and a drain's soft cancel reaches nothing.
    """

    def test_entrant_timeout_fires(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                start = time.monotonic()
                outcome = client.portfolio(CASE, SLEEPER, scale=SCALE, jobs=1, timeout=0.5)
                elapsed = time.monotonic() - start
        assert not outcome["ok"]
        assert [result["status"] for result in outcome["results"]] == ["timeout"]
        assert elapsed < 10.0

    def test_drain_cancels_the_running_entrant(self, tmp_path):
        with serving(tmp_path, drain_grace=0.5) as handle:
            started = threading.Event()
            outcomes = []

            def race():
                with ServeClient(socket=handle.address) as client:
                    outcomes.append(client.portfolio(
                        CASE, SLEEPER, scale=SCALE, jobs=1,
                        on_event=lambda event: started.set(),
                    ))

            racer = threading.Thread(target=race)
            racer.start()
            assert started.wait(timeout=30)
            start = time.monotonic()
            handle.shutdown()
            elapsed = time.monotonic() - start
            racer.join(timeout=60)
        assert elapsed < 10.0
        assert outcomes and not outcomes[0]["ok"]
        assert [result["status"] for result in outcomes[0]["results"]] == ["cancelled"]


class TestInlineInstances:
    def test_distinct_inline_instances_are_each_computed(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                for index in range(1, 6):
                    instance = build_instance(f"1T-{index}", 1.0)
                    assert client.plan(instance, planner="greedy-1d").ok
                    assert client.last_outcome == "computed"


class TestCoalescing:
    def test_concurrent_identical_plans_run_once(self, tmp_path, monkeypatch):
        """N identical in-flight requests → one execution, N identical results."""
        delay_fault(monkeypatch, 1.5)
        with serving(tmp_path, max_inflight=1) as handle:
            outcomes, dicts, errors = [], [], []

            def submit():
                try:
                    with ServeClient(socket=handle.address) as client:
                        result = client.plan(CASE, scale=SCALE)
                        outcomes.append(client.last_outcome)
                        dicts.append(result.to_dict())
                except Exception as exc:  # noqa: BLE001 — surfaced via `errors`
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            with ServeClient(socket=handle.address) as client:
                status = client.status()

        assert errors == []
        assert sorted(outcomes) == ["coalesced", "coalesced", "coalesced", "computed"]
        # Bit-identical results: every client got the same record, byte for byte.
        assert all(d == dicts[0] for d in dicts[1:])
        assert status["requests"]["computed"] == 1
        assert status["requests"]["coalesced"] == 3
        # ... and the shared record matches a serial run on its deterministic
        # fields (provenance like worker pid may differ).
        serial = execute_job(PlanJob(spec=PlannerSpec("eblow"), case=CASE, scale=SCALE))
        for field in ("status", "writing_time", "num_selected"):
            assert dicts[0][field] == getattr(serial, field), field


    def test_coalesced_waiters_keep_their_own_labels(self, tmp_path, monkeypatch):
        """Two labels, one job id: one execution, each frame under its own label."""
        delay_fault(monkeypatch, 0.5, match="1T-3")
        requests = [
            {"planner": "eblow", "case": "1T-3", "scale": 1.0, "label": label}
            for label in ("a", "b")
        ]
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                results = client.batch(requests)
                status = client.status()
        assert [r.label for r in results] == ["a", "b"]
        assert {k: v for k, v in status["requests"].items() if v} == {
            "computed": 1, "coalesced": 1,
        }
        assert results[1].to_dict() == {**results[0].to_dict(), "label": "b"}


class TestAdmission:
    def test_flood_is_rejected_queue_full(self, tmp_path, monkeypatch):
        """Pipelining past the per-client bound gets explicit rejections.

        The admission queue is keyed by connection, so the flood must arrive
        on ONE socket: max_inflight=1 holds a delayed job running, the second
        request queues (bound 1), and the rest must bounce as ``queue_full``.
        """
        delay_fault(monkeypatch, 1.5)
        with serving(tmp_path, max_inflight=1, per_client_queue=1, cache=False) as handle:
            sock = socketlib.socket(socketlib.AF_UNIX)
            sock.connect(handle.address)
            sock.settimeout(60)
            stream = sock.makefile("rwb")
            scales = [0.10, 0.11, 0.12, 0.13]
            for index, scale in enumerate(scales):
                frame = {
                    "v": 1,
                    "id": f"r{index}",
                    "verb": "plan",
                    "request": {"planner": "eblow", "case": CASE, "scale": scale},
                }
                stream.write((json.dumps(frame) + "\n").encode())
            stream.flush()
            terminal, rejected = {}, []
            while len(terminal) < len(scales):
                frame = json.loads(stream.readline())
                if frame["frame"] == "result":
                    terminal[frame["id"]] = frame["result"]["status"]
                elif frame["frame"] == "error":
                    terminal[frame["id"]] = frame["code"]
                    rejected.append(frame["code"])
            stream.close()
            sock.close()
        # 1 running + 1 queued admitted; the other 2 bounced immediately.
        assert rejected == ["queue_full", "queue_full"]
        assert sorted(terminal.values()) == ["ok", "ok", "queue_full", "queue_full"]


class TestSubscribe:
    def test_two_subscribers_see_the_same_stream(self, tmp_path, monkeypatch):
        delay_fault(monkeypatch, 1.5)
        with serving(tmp_path) as handle:
            done = []

            def submit():
                with ServeClient(socket=handle.address) as client:
                    done.append(client.plan(CASE, scale=SCALE))

            submitter = threading.Thread(target=submit)
            submitter.start()
            with ServeClient(socket=handle.address) as poller:
                job_id = wait_for_flight(poller)

            streams = [[], []]

            def watch(slot):
                with ServeClient(socket=handle.address) as client:
                    for event in client.iter_events(job_id):
                        streams[slot].append(event)
                    streams[slot].append(client.last_done)

            watchers = [threading.Thread(target=watch, args=(i,)) for i in (0, 1)]
            for thread in watchers:
                thread.start()
            for thread in [*watchers, submitter]:
                thread.join(timeout=120)

        assert done and done[0].ok
        for stream in streams:
            *events, summary = stream
            assert events, "subscriber saw no events"
            assert events[-1].type == "finished"
            assert summary["status"] == "ok"
            assert summary["dropped"] == 0
        # Identical sequences for both subscribers (backlog replay included).
        first = [(e.type, e.seq) for e in streams[0][:-1]]
        second = [(e.type, e.seq) for e in streams[1][:-1]]
        assert first == second

    def test_unknown_job_is_rejected(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                with pytest.raises(ServeError) as info:
                    list(client.iter_events("no-such-job"))
        assert info.value.code == "unknown_job"


class TestDraining:
    def test_drain_finishes_inflight_and_rejects_new_work(self, tmp_path, monkeypatch):
        delay_fault(monkeypatch, 1.5)
        with serving(tmp_path) as handle:
            done = []

            def submit():
                with ServeClient(socket=handle.address) as client:
                    done.append(client.plan(CASE, scale=SCALE))

            submitter = threading.Thread(target=submit)
            submitter.start()
            with ServeClient(socket=handle.address) as poller:
                wait_for_flight(poller)
            control = ServeClient(socket=handle.address)
            control.shutdown()
            # The in-flight job keeps the drain window open; new work on the
            # still-open connection is rejected explicitly.
            with pytest.raises(ServeError) as info:
                control.plan("1T-2", scale=SCALE)
            control.close()
            submitter.join(timeout=120)
        assert info.value.code == "draining"
        assert done and done[0].ok


class TestEventChannel:
    def test_slow_consumer_drops_oldest(self):
        async def scenario():
            channel = EventChannel(4)
            for value in range(10):
                channel.publish(value)
            channel.close()
            return [item async for item in channel]

        delivered = asyncio.run(scenario())
        assert delivered == [6, 7, 8, 9]

    def test_close_ends_iteration(self):
        async def scenario():
            channel = EventChannel(4)
            channel.publish("only")
            channel.close()
            return [item async for item in channel]

        assert asyncio.run(scenario()) == ["only"]


class TestStatus:
    def test_status_shape(self, tmp_path):
        with serving(tmp_path) as handle:
            with ServeClient(socket=handle.address) as client:
                status = client.status()
        assert status["uptime_seconds"] >= 0
        assert status["draining"] is False
        assert status["connections"] == 1
        assert status["inflight"] == 0
        assert status["queued"] == 0
        assert status["pool"]["workers"] == 1
        assert status["store"]["enabled"] is True


class TestListening:
    def test_socket_path_appears_only_once_the_daemon_listens(self, tmp_path, monkeypatch):
        """A client that dials the moment the socket file exists is let in."""
        # Hold asyncio between creating its server and listening on it, so a
        # socket file that appeared before ``listen`` is dialled in between.
        start_serving = asyncio.base_events.Server._start_serving

        def slow_start_serving(server):
            time.sleep(0.05)
            start_serving(server)

        monkeypatch.setattr(asyncio.base_events.Server, "_start_serving", slow_start_serving)
        path = tmp_path / "serve.sock"
        for _ in range(5):
            refused = []

            def dial_on_sight():
                deadline = time.monotonic() + 30.0
                while not path.exists() and time.monotonic() < deadline:
                    time.sleep(0.001)
                try:
                    with ServeClient(socket=str(path), timeout=30) as client:
                        client.status()
                except ServeError as exc:
                    refused.append(exc)

            dialer = threading.Thread(target=dial_on_sight)
            dialer.start()
            with serving(tmp_path):
                dialer.join(timeout=30)
            assert not dialer.is_alive()
            assert refused == []
            assert not path.exists()


class TestDrainFailures:
    """A drain that cannot prune or write its snapshot warns once and exits."""

    @staticmethod
    def _drain_warnings(tmp_path, mentioning, **overrides):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with serving(tmp_path, **overrides) as handle:
                pass
        assert not handle.thread.is_alive()
        return [
            w for w in caught
            if issubclass(w.category, RuntimeWarning) and mentioning in str(w.message)
        ]

    def test_unwritable_metrics_snapshot_warns_once(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        target = blocker / "metrics.json"
        caught = self._drain_warnings(
            tmp_path, str(target), cache=False, metrics_out=str(target)
        )
        assert len(caught) == 1
        # The warning names the cause: mkdir of the parent fails.
        assert "Error: " in str(caught[0].message)
        assert not target.exists()

    def test_failed_prune_warns_once(self, tmp_path, monkeypatch):
        from repro.runtime.store import ResultStore

        def refuse(self, max_bytes, all_versions=True):
            raise PermissionError(13, "Permission denied", str(self.root))

        monkeypatch.setattr(ResultStore, "prune", refuse)
        caught = self._drain_warnings(tmp_path, str(tmp_path / "cache"), prune_bytes=1024)
        assert len(caught) == 1
        assert "PermissionError" in str(caught[0].message)
