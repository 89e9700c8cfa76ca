"""The cross-process observability pipeline end to end.

Worker-process registries must fold into the parent's, relayed span events
must reassemble into one tree, telemetry records must carry the versioned
envelope, and the CLI verbs must render all of it.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.events import PlanEvent, emit, emitting
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import TraceCollector
from repro.runtime import (
    LocalScheduler,
    PlanJob,
    PlannerPool,
    PlannerSpec,
    Telemetry,
    read_manifest,
    run_jobs,
    summarize_manifest,
)

JOBS = [
    PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=0.5),
    PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-2", scale=0.5),
]


def _value(snapshot, name, **labels):
    for sample in snapshot["metrics"][name]["series"]:
        if sample["labels"] == labels:
            return sample["value"]
    raise AssertionError(f"no series {labels} in {name}: {snapshot['metrics'].get(name)}")


class TestCrossProcessMetrics:
    def test_worker_registries_merge_into_parent(self):
        with obs_metrics.collecting() as registry:
            with PlannerPool(max_workers=2) as pool:
                results = run_jobs(JOBS, scheduler=LocalScheduler(pool=pool))
        assert all(r.ok for r in results)
        snap = registry.snapshot()
        # Planner-side families crossed the process boundary...
        assert _value(snap, "plans_total", planner="eblow-1d", status="ok") == 2.0
        assert _value(snap, "lp_solves_total") >= 1.0
        # ...and the pool accounted the same jobs on the parent side.
        assert _value(snap, "pool_jobs_total", mode="pool", status="ok") == 2.0
        # Snapshots are consumed at merge time, never persisted on results.
        assert all(r.metrics is None for r in results)
        assert all("metrics" not in r.to_dict() for r in results)

    def test_inline_pool_collects_without_snapshots(self):
        with obs_metrics.collecting() as registry:
            with PlannerPool(max_workers=1) as pool:
                results = run_jobs(JOBS[:1], scheduler=LocalScheduler(pool=pool))
        assert results[0].ok
        snap = registry.snapshot()
        assert _value(snap, "pool_jobs_total", mode="inline", status="ok") == 1.0
        assert _value(snap, "plans_total", planner="eblow-1d", status="ok") == 1.0

    def test_no_registry_means_no_worker_collection(self):
        assert obs_metrics.installed() is None
        with PlannerPool(max_workers=2) as pool:
            results = run_jobs(JOBS[:1], scheduler=LocalScheduler(pool=pool))
        assert results[0].ok and results[0].metrics is None


class TestCrossProcessSpans:
    def test_relayed_spans_reassemble_into_one_tree(self):
        collector = TraceCollector()
        from repro.obs.tracing import span
        from repro.runtime import iter_jobs

        with PlannerPool(max_workers=2) as pool:
            with emitting(collector), span("batch", jobs=2):
                scheduler = LocalScheduler(pool=pool)
                results = list(iter_jobs(JOBS, scheduler=scheduler, on_event=collector))
        assert all(r.ok for r in results)
        tree = collector.tree()
        assert tree.name == "batch"
        names = [node.name for _, node in tree.walk()]
        assert "dispatch" in names and "job" in names
        # Worker job spans hang off the dispatch that awaited them, stamped
        # with the worker pid by the relay.
        jobs = [node for _, node in tree.walk() if node.name == "job"]
        assert len(jobs) == 2
        assert all(node.attrs.get("worker_pid") for node in jobs)
        assert {node.attrs["case"] for node in jobs} == {"1T-1", "1T-2"}
        for node in jobs:
            assert node.pid != tree.pid

    def test_workers_do_not_inherit_parent_event_scopes(self):
        seen: list[PlanEvent] = []
        with emitting(seen.append):
            with PlannerPool(max_workers=2) as pool:
                results = run_jobs(JOBS[:1], scheduler=LocalScheduler(pool=pool))
        assert results[0].ok
        # No relay was requested, so no *worker* event may leak into the
        # parent scope through fork inheritance (the worker would write to
        # the parent's sink object directly).  Parent-side spans (the
        # scheduler's dispatch brackets) are fine — they run in this process.
        import os

        parent_pid = os.getpid()
        assert all(e.payload.get("pid", parent_pid) == parent_pid for e in seen)
        assert all(e.type == "span" for e in seen)


class TestTelemetryEnvelope:
    def test_records_are_versioned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry(path)
        with PlannerPool(max_workers=1) as pool:
            result = run_jobs(JOBS[:1], scheduler=LocalScheduler(pool=pool))[0]
        telemetry.record(result)
        telemetry.record_event(PlanEvent(type="stage", payload={"name": "x"}))
        telemetry.record_metrics({"v": 1, "metrics": {}})
        kinds = []
        for record in read_manifest(path):
            assert record["v"] == 1
            kinds.append(record["record"])
        assert kinds == ["job", "event", "metrics"]

    def test_read_manifest_tolerates_junk_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"v": 1, "record": "job", "status": "ok", "case": "x"})
            + "\n\nnot json\n[1, 2]\n"
            + json.dumps({"v": 1, "record": "event", "type": "stage"})
            + "\n"
        )
        records = read_manifest(path)
        assert [r["record"] for r in records] == ["job", "event"]
        summary = summarize_manifest(records)
        assert summary["jobs"] == 1  # event records are not job outcomes

    def test_guarded_sink_warns_once_then_drops(self):
        healthy = []

        def broken(event):
            raise RuntimeError("boom")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with emitting(broken), emitting(healthy.append):
                emit("stage", name="x")
                emit("stage", name="y")
        assert len(healthy) == 2
        dropped = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(dropped) == 1
        assert "dropped" in str(dropped[0].message)


class TestFacadeTrace:
    def test_plan_result_trace_assembles_captured_spans(self):
        import repro

        result = repro.plan("1T-1", planner="eblow-1d", scale=0.5)
        tree = result.trace()
        assert tree is not None and tree.name == "job"
        names = [node.name for _, node in tree.walk()]
        assert "successive_rounding" in names and "lp_solve" in names

    def test_trace_is_none_without_collected_events(self):
        from repro.api import PlanRequest, submit

        result = submit(
            PlanRequest(planner="eblow-1d", case="1T-1", scale=0.5),
            collect_events=False,
        )
        assert result.ok and result.trace() is None


class TestObservabilityCLI:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_plan_metrics_out_and_stats(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        snapshot = tmp_path / "m.json"
        assert self._run(["generate", "--case", "1T-1", "--out", str(instance)]) == 0
        assert (
            self._run(
                ["plan", "--instance", str(instance), "--metrics-out", str(snapshot)]
            )
            == 0
        )
        data = json.loads(snapshot.read_text())
        assert data["v"] == 1 and "plans_total" in data["metrics"]
        capsys.readouterr()
        assert self._run(["stats", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "plans_total" in out and "lp_solves_total" in out
        assert self._run(["stats", str(snapshot), "--format", "prom"]) == 0
        assert "# TYPE plans_total counter" in capsys.readouterr().out

    def test_batch_events_out_and_trace(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        manifest = tmp_path / "run.jsonl"
        snapshot = tmp_path / "m.json"
        code = self._run(
            [
                "batch",
                "--cases",
                "1T-1",
                "1T-2",
                "--jobs",
                "2",
                "--no-cache",
                "--events-out",
                str(events),
                "--metrics-out",
                str(snapshot),
                "--manifest",
                str(manifest),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert self._run(["trace", str(events)]) == 0
        out = capsys.readouterr().out
        assert "== trace ==" in out and "batch" in out and "dispatch" in out
        assert "== time budget ==" in out
        # --metrics-out with --manifest appends a metrics record, so the
        # manifest alone feeds both verbs.
        assert any(r.get("record") == "metrics" for r in read_manifest(manifest))
        assert self._run(["stats", str(manifest)]) == 0
        assert "pool_jobs_total" in capsys.readouterr().out

    def test_stats_rejects_sources_without_metrics(self, tmp_path, capsys):
        empty = tmp_path / "nothing.jsonl"
        empty.write_text(json.dumps({"v": 1, "record": "job", "status": "ok"}) + "\n")
        assert self._run(["stats", str(empty)]) == 1
        assert "no metrics" in capsys.readouterr().err
        assert self._run(["trace", str(empty)]) == 1
        assert "no span events" in capsys.readouterr().err
