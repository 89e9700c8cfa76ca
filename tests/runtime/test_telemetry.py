"""Telemetry manifests: JSONL structure, summaries, crash-safe appends."""

import json

from repro.runtime import (
    PlanJob,
    PlannerSpec,
    Telemetry,
    execute_job,
    read_manifest,
    summarize_manifest,
)


def _result(case="1T-1"):
    return execute_job(PlanJob(spec=PlannerSpec("greedy-1d"), case=case, scale=1.0))


class TestTelemetry:
    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"  # parent is created on demand
        telemetry = Telemetry(path)
        telemetry.record(_result("1T-1"))
        telemetry.record(_result("1T-2"), portfolio_winner=True)

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["case"] == "1T-1"
        assert records[0]["status"] == "ok"
        assert records[0]["worker_pid"] > 0
        assert records[1]["portfolio_winner"] is True
        assert read_manifest(path) == records

    def test_memory_only_mode(self):
        telemetry = Telemetry(None)
        telemetry.record(_result())
        assert telemetry.path is None
        assert telemetry.summary()["jobs"] == 1

    def test_summary_counts(self):
        telemetry = Telemetry(None)
        ok = _result()
        telemetry.record(ok)
        hit = _result()
        hit.cache_hit = True
        telemetry.record(hit)
        bad = execute_job(PlanJob(spec=PlannerSpec("eblow-2d"), case="1T-1", scale=1.0))
        telemetry.record(bad)

        summary = telemetry.summary()
        assert summary["jobs"] == 3
        assert summary["ok"] == 2
        assert summary["errors"] == 1
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 2
        assert summary["total_wall_seconds"] > 0

    def test_summarize_empty(self):
        summary = summarize_manifest([])
        assert summary["jobs"] == 0
        assert summary["cache_hit_rate"] == 0.0


class TestManifestLifecycle:
    def test_new_telemetry_truncates_an_existing_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        Telemetry(path).record(_result("1T-1"))
        assert len(read_manifest(path)) == 1
        # Re-running with the same --manifest must describe only the new run.
        fresh = Telemetry(path)
        fresh.record(_result("1T-2"))
        records = read_manifest(path)
        assert len(records) == 1
        assert records[0]["case"] == "1T-2"

    def test_append_mode_keeps_prior_runs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        Telemetry(path).record(_result("1T-1"))
        Telemetry(path, append=True).record(_result("1T-2"))
        assert [r["case"] for r in read_manifest(path)] == ["1T-1", "1T-2"]


def test_manifest_records_carry_planner_extra_counters(tmp_path):
    """Per-iteration LP solve times ride into the manifest via ``extra``."""
    path = tmp_path / "run.jsonl"
    telemetry = Telemetry(path)
    result = execute_job(
        PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0)
    )
    assert result.ok
    telemetry.record(result)
    (record,) = read_manifest(path)
    extra = record["extra"]
    assert "lp_solve_seconds" in extra
    assert len(extra["lp_solve_seconds"]) >= 1
    assert all(t >= 0.0 for t in extra["lp_solve_seconds"])
