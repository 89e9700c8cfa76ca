"""Portfolio racing: best-by-writing-time winner, budgets, cache interplay."""

import time

import pytest

from repro.errors import ValidationError
from repro.runtime import (
    PlannerSpec,
    ResultStore,
    Telemetry,
    execute_job,
    register_planner,
    run_portfolio,
)
from repro.runtime.jobs import JobResult, PlanJob

_1D_ENTRIES = {
    "greedy": PlannerSpec("greedy-1d"),
    "rows": PlannerSpec("rows-1d"),
    "e-blow": PlannerSpec("eblow-1d"),
}


class TestPortfolio:
    @pytest.mark.parametrize("workers", [1, 3], ids=["inline", "pooled"])
    def test_winner_is_min_writing_time(self, workers):
        outcome = run_portfolio("1T-3", _1D_ENTRIES, scale=1.0, max_workers=workers)
        assert outcome.ok
        assert len(outcome.results) == 3
        finished_ok = [r for r in outcome.results if r.ok]
        best = min(r.writing_time for r in finished_ok)
        assert outcome.winner.writing_time == best
        # Cross-check against direct serial runs of each entrant.
        for label, spec in _1D_ENTRIES.items():
            direct = execute_job(PlanJob(spec=spec, case="1T-3", scale=1.0, label=label))
            assert outcome.winner.writing_time <= direct.writing_time

    def test_failed_entrants_do_not_win(self, small_1d_instance):
        entries = {
            "bad": PlannerSpec("eblow-2d"),  # wrong kind: errors out
            "greedy": PlannerSpec("greedy-1d"),
        }
        outcome = run_portfolio(small_1d_instance, entries, max_workers=2)
        assert outcome.ok
        assert outcome.winner.label == "greedy"
        statuses = {r.label: r.status for r in outcome.results}
        assert statuses["bad"] == "error"

    def test_cached_entrant_races_for_free(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_portfolio("1T-1", _1D_ENTRIES, scale=1.0, max_workers=2, store=store)
        second = run_portfolio("1T-1", _1D_ENTRIES, scale=1.0, max_workers=2, store=store)
        assert second.ok
        assert all(r.cache_hit for r in second.results)
        assert second.winner.writing_time == first.winner.writing_time

    def test_telemetry_marks_the_winner(self, tmp_path):
        telemetry = Telemetry(tmp_path / "race.jsonl")
        outcome = run_portfolio(
            "1T-2", _1D_ENTRIES, scale=1.0, max_workers=2, telemetry=telemetry
        )
        winners = [r for r in telemetry.records if r.get("portfolio_winner")]
        assert len(winners) == 1
        assert winners[0]["label"] == outcome.winner.label

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValidationError):
            run_portfolio("1T-1", {}, scale=1.0)


class _StallPlanner:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def plan(self, instance):
        time.sleep(self.seconds)
        from repro.model import StencilPlan

        return StencilPlan.empty(instance)


register_planner(
    "test-stall",
    lambda options: _StallPlanner(float(options.get("seconds", 30.0))),
    description="test-only planner that stalls (budget tests)",
)


class TestBudget:
    def test_budget_bounds_the_race_wall_clock(self):
        entries = {
            "fast": PlannerSpec("greedy-1d"),
            "stall": PlannerSpec("test-stall", {"seconds": 60.0}),
        }
        start = time.perf_counter()
        # Explicit long per-job timeout: the stall can only leave the race by
        # budget-expiry cancellation, never by its own alarm.
        outcome = run_portfolio(
            "1T-1", entries, scale=1.0, max_workers=2, timeout=60.0, budget=1.5
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0  # nowhere near the 60s stall
        assert outcome.ok and outcome.winner.label == "fast"
        assert "stall" in outcome.cancelled


class TestQualityStops:
    """Target writing time + incumbent-aware straggler cancellation."""

    def test_target_stops_the_race_early(self):
        entries = {
            "fast": PlannerSpec("greedy-1d"),
            "stall": PlannerSpec("test-stall", {"seconds": 60.0}),
        }
        start = time.perf_counter()
        outcome = run_portfolio(
            "1T-1", entries, scale=1.0, max_workers=2, timeout=60.0, target=1e12
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0
        assert outcome.ok and outcome.winner.label == "fast"
        assert "stall" in outcome.cancelled

    def test_straggler_grace_cancels_unpromising_entrants(self):
        entries = {
            "fast": PlannerSpec("greedy-1d"),
            "stall": PlannerSpec("test-stall", {"seconds": 60.0}),
        }
        start = time.perf_counter()
        # The stall never reports an incumbent, so it cannot be promising
        # and must fall to the grace deadline well before its own runtime.
        outcome = run_portfolio(
            "1T-1", entries, scale=1.0, max_workers=2, timeout=60.0,
            straggler_grace=1.0,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0
        assert outcome.ok and outcome.winner.label == "fast"
        assert "stall" in outcome.cancelled

    def test_serial_mode_skips_stragglers_once_a_winner_exists(self):
        entries = {
            "fast": PlannerSpec("greedy-1d"),
            "stall": PlannerSpec("test-stall", {"seconds": 60.0}),
        }
        outcome = run_portfolio(
            "1T-1", entries, scale=1.0, max_workers=1, straggler_grace=0.5
        )
        assert outcome.ok and outcome.winner.label == "fast"
        assert outcome.cancelled == ["stall"]

    def test_on_event_streams_label_stamped_events(self):
        events = []
        outcome = run_portfolio(
            "1T-2",
            {"greedy": PlannerSpec("greedy-1d"), "rows": PlannerSpec("rows-1d")},
            scale=1.0,
            max_workers=2,
            on_event=events.append,
        )
        assert outcome.ok
        labels = {e.payload.get("label") for e in events}
        assert labels == {"greedy", "rows"}
        assert {e.type for e in events} >= {"started", "finished"}

    def test_on_event_inline_mode(self):
        events = []
        outcome = run_portfolio(
            "1T-2",
            {"greedy": PlannerSpec("greedy-1d")},
            scale=1.0,
            max_workers=1,
            on_event=events.append,
        )
        assert outcome.ok
        assert [e.type for e in events][0] == "started"
        assert all(e.payload.get("label") == "greedy" for e in events)


class TestGraceWithCachedWinner:
    def test_pool_grace_armed_by_store_hit_winner(self, tmp_path):
        from repro.runtime import ResultStore

        store = ResultStore(tmp_path)
        # Warm the store with the fast entrant only.
        run_portfolio(
            "1T-1", {"fast": PlannerSpec("greedy-1d")}, scale=1.0,
            max_workers=1, store=store,
        )
        entries = {
            "fast": PlannerSpec("greedy-1d"),
            "stall": PlannerSpec("test-stall", {"seconds": 60.0}),
        }
        start = time.perf_counter()
        outcome = run_portfolio(
            "1T-1", entries, scale=1.0, max_workers=2, timeout=60.0,
            store=store, straggler_grace=1.0,
        )
        elapsed = time.perf_counter() - start
        assert outcome.ok and outcome.winner.label == "fast"
        assert outcome.winner.cache_hit
        assert "stall" in outcome.cancelled
        assert elapsed < 20.0  # grace fired even though the winner came from the store


class TestBrokenObservers:
    """A raising on_event callback must not change race outcomes or reports."""

    def test_broken_callback_keeps_incumbent_bookkeeping(self):
        # 2D entrants stream incumbents; the callback raising on the first
        # event must not stop race.observe from seeing later ones.
        calls = []

        def broken(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        outcome = run_portfolio(
            "2T-1",
            {"e-blow": PlannerSpec("eblow-2d"), "sa": PlannerSpec("sa-2d")},
            scale=1.0,
            max_workers=2,
            on_event=broken,
        )
        assert outcome.ok and len(calls) == 1  # dropped after the first raise

    def test_broken_callback_serial_mode(self):
        def broken(event):
            raise RuntimeError("observer bug")

        outcome = run_portfolio(
            "1T-2",
            {"greedy": PlannerSpec("greedy-1d"), "rows": PlannerSpec("rows-1d")},
            scale=1.0,
            max_workers=1,
            on_event=broken,
        )
        assert outcome.ok and len(outcome.results) == 2

    def test_store_hit_target_winner_reports_pending_as_cancelled(self, tmp_path):
        store = ResultStore(tmp_path)
        run_portfolio(
            "1T-1", {"fast": PlannerSpec("greedy-1d")}, scale=1.0,
            max_workers=1, store=store,
        )
        outcome = run_portfolio(
            "1T-1",
            {"fast": PlannerSpec("greedy-1d"), "rows": PlannerSpec("rows-1d")},
            scale=1.0, max_workers=2, store=store, target=1e12,
        )
        assert outcome.ok and outcome.winner.cache_hit
        assert outcome.cancelled == ["rows"]


def test_promising_requires_fresh_incumbents():
    from repro.events import PlanEvent
    from repro.runtime.portfolio import _Race

    race = _Race(target=None)
    race.take(
        JobResult(job_id="w", case="c", label="win", planner="p", status="ok",
                  writing_time=100.0)
    )
    race.observe(PlanEvent(type="incumbent", payload={"label": "s", "cost": 50.0}))
    assert race.promising("s", freshness=5.0)          # fresh and better
    assert not race.promising("s", freshness=0.0)      # gone stale instantly
    assert not race.promising("quiet", freshness=5.0)  # never reported
    race.observe(PlanEvent(type="incumbent", payload={"label": "s", "cost": 200.0}))
    assert not race.promising("s", freshness=5.0)      # fresh but worse
    race.observe(PlanEvent(type="incumbent", payload={"label": "s", "cost": float("nan")}))
    assert race.incumbents["s"][0] == 200.0            # non-finite reports are ignored

