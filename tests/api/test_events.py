"""Tests for the streaming event protocol and planner instrumentation."""

from repro.api import plan
from repro.events import PlanEvent, emit, emitting, events_enabled
from repro.model import StencilPlan
from repro.workloads import build_instance


class TestEmitter:
    def test_emit_without_sink_is_a_noop(self):
        assert not events_enabled()
        emit("iteration", n=1)  # must not raise

    def test_sink_receives_events_with_seq_and_elapsed(self):
        seen = []
        with emitting(seen.append):
            assert events_enabled()
            emit("stage", name="a")
            emit("stage", name="b")
        assert [e.seq for e in seen] == [1, 2]
        assert all(e.elapsed >= 0.0 for e in seen)
        assert seen[0].payload == {"name": "a"}
        assert not events_enabled()

    def test_nested_scopes_both_receive(self):
        outer, inner = [], []
        with emitting(outer.append):
            emit("stage", name="before")
            with emitting(inner.append):
                emit("stage", name="within")
            emit("stage", name="after")
        assert [e.payload["name"] for e in outer] == ["before", "within", "after"]
        assert [e.payload["name"] for e in inner] == ["within"]
        # Each scope numbers its own stream.
        assert [e.seq for e in inner] == [1]

    def test_broken_sink_is_dropped_not_fatal(self):
        import pytest

        healthy = []

        def broken(event):
            raise RuntimeError("boom")

        with pytest.warns(RuntimeWarning, match="dropped"):
            with emitting(broken):
                with emitting(healthy.append):
                    emit("stage", name="x")
                    emit("stage", name="y")
        assert [e.payload["name"] for e in healthy] == ["x", "y"]

    def test_sink_is_thread_local(self):
        import threading

        seen = []
        leaked = []

        def other_thread():
            emit("stage", name="leak")  # no sink in this thread
            leaked.append(events_enabled())

        with emitting(seen.append):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert seen == [] and leaked == [False]


class TestPlannerInstrumentation:
    def test_1d_flow_emits_lp_and_iteration_events(self):
        result = plan("1M-1", planner="eblow-1d", scale=0.05)
        counts = result.event_counts()
        assert counts.get("lp_solve", 0) >= 1
        assert counts.get("iteration", 0) >= 1
        assert counts.get("stage", 0) >= 3
        assert counts["started"] == counts["finished"] == 1

    def test_2d_flow_emits_three_plus_distinct_types(self):
        result = plan("2D-1", planner="eblow-2d", scale=0.05)
        counts = result.event_counts()
        assert counts.get("temperature", 0) >= 1
        assert counts.get("incumbent", 0) >= 1
        assert len(counts) >= 3

    def test_both_engines_emit_temperature_steps(self, small_2d_instance):
        """The planner's engine and the copy-engine oracle share the protocol."""
        from repro.events import emitting
        from repro.floorplan import Block, FixedOutlinePacker
        from tests.oracles.annealing import CopyEngine

        result = plan(small_2d_instance, planner="sa-2d")
        assert result.event_counts().get("temperature", 0) >= 1
        blocks = {f"b{i}": Block(f"b{i}", 20 + 3 * i, 24, 2, 2, 2, 2) for i in range(6)}
        packer = FixedOutlinePacker(60, 60, blocks, writing_time_of=lambda s: 99.0 - len(s))
        seen = []
        with emitting(seen.append):
            CopyEngine(packer).pack(seed=1)
        assert any(event.type == "temperature" for event in seen)

    def test_instrumentation_does_not_change_plans(self, small_2d_instance):
        silent = plan(small_2d_instance, planner="eblow-2d", collect_events=False)
        chatty = plan(small_2d_instance, planner="eblow-2d")
        strip = lambda p: {k: v for k, v in p.items() if k != "stats"}  # noqa: E731
        assert strip(silent.plan) == strip(chatty.plan)
        assert silent.writing_time == chatty.writing_time

    def test_events_do_not_leak_into_plain_planner_calls(self, small_1d_instance):
        from repro import EBlow1DPlanner

        plan_obj = EBlow1DPlanner().plan(small_1d_instance)
        assert isinstance(plan_obj, StencilPlan)  # no sink installed: nothing to assert but no crash


class TestEventSerialization:
    def test_round_trip(self):
        event = PlanEvent(type="lp_solve", seq=2, elapsed=1.5, payload={"seconds": 0.1})
        assert PlanEvent.from_dict(event.to_dict()) == event

    def test_describe_is_single_line(self):
        event = PlanEvent(type="temperature", seq=1, elapsed=0.5, payload={"cost": 3.14159})
        text = event.describe()
        assert "\n" not in text and "temperature" in text and "cost=3.142" in text

    def test_telemetry_event_records_are_skipped_by_summaries(self, tmp_path):
        from repro.runtime import Telemetry, read_manifest, summarize_manifest
        from repro.runtime.jobs import PlanJob, PlannerSpec, execute_job

        manifest = tmp_path / "mixed.jsonl"
        telemetry = Telemetry(manifest)
        result = execute_job(
            PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0)
        )
        telemetry.record(result)
        telemetry.record_event(
            PlanEvent(type="incumbent", seq=1, elapsed=0.1, payload={"cost": 5.0}),
            job_id=result.job_id,
        )
        records = read_manifest(manifest)
        assert len(records) == 2
        summary = summarize_manifest(records)
        assert summary["jobs"] == 1 and summary["ok"] == 1

    def test_worker_events_cross_the_process_boundary(self):
        from repro.runtime import EventRelay, PlannerPool
        from repro.runtime.jobs import PlanJob, PlannerSpec

        instance = build_instance("1T-1", 1.0)
        seen = []
        with EventRelay(seen.append) as relay:
            with PlannerPool(max_workers=2) as pool:
                results = list(
                    pool.imap(
                        [
                            PlanJob(
                                spec=PlannerSpec("greedy-1d"),
                                instance=instance,
                                label="a",
                            ),
                            PlanJob(
                                spec=PlannerSpec("rows-1d"),
                                instance=instance,
                                label="b",
                            ),
                        ],
                        event_queue=relay.queue,
                    )
                )
        assert all(r.ok for r in results)
        labels = {e.payload.get("label") for e in seen}
        types = {e.type for e in seen}
        assert labels == {"a", "b"}
        assert {"started", "finished"} <= types
