"""Batch-serve a suite of instances through the planning runtime.

Demonstrates the `repro.runtime` subsystem end to end: build a cases x
planners grid, fan it out over one **warm worker pool** with a result store
and a telemetry manifest, re-run it to show cache hits (same pool, zero
respawn), then race a portfolio of planner configs on a single instance.

Inline instances would ship through the pool's shared-memory arena exactly
once; named cases (used here) travel as thin descriptors and are memoised
by digest inside each worker.

Run with::

    PYTHONPATH=src python examples/batch_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro
from repro.runtime import (
    LocalScheduler,
    PlannerSpec,
    ResultStore,
    Telemetry,
    grid_jobs,
    run_jobs,
    run_portfolio,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="eblow-batch-"))
    store = ResultStore(workdir / "cache")
    telemetry = Telemetry(workdir / "manifest.jsonl")

    planners = {
        "greedy": PlannerSpec("greedy-1d"),
        "e-blow": PlannerSpec("eblow-1d"),
    }
    jobs = grid_jobs(["1T-1", "1T-2", "1T-3", "1T-4", "1T-5"], planners, scale=1.0)

    with repro.planner_pool(max_workers=2) as pool:
        warm = LocalScheduler(pool=pool)
        print(f"cold batch: {len(jobs)} jobs on 2 workers")
        for result in run_jobs(jobs, scheduler=warm, store=store, telemetry=telemetry):
            print(
                f"  {result.case:>5} {result.label:<7} T={result.writing_time:7.0f} "
                f"chars={result.num_selected:2d} pid={result.worker_pid}"
            )

        print("warm batch: same grid, same pool, served from the store")
        for result in run_jobs(jobs, scheduler=warm, store=store, telemetry=telemetry):
            assert result.cache_hit
        print(f"  summary: {telemetry.summary()}")

    print("portfolio race on 1M-1 (scaled down, straggler-aware)")
    # straggler_grace consumes the entrants' PlanEvent streams: once the
    # first entrant finishes, the rest get 10s of grace, after which any
    # entrant whose reported incumbent does not beat the winner is cancelled.
    incumbents = []
    outcome = run_portfolio(
        "1M-1",
        {
            "greedy": PlannerSpec("greedy-1d"),
            "e-blow-0": PlannerSpec("eblow-1d", {"ablated": True}),
            "e-blow-1": PlannerSpec("eblow-1d"),
        },
        scale=0.05,
        max_workers=3,
        straggler_grace=10.0,
        on_event=lambda e: incumbents.append(e) if e.type == "incumbent" else None,
    )
    for result in outcome.results:
        marker = "*" if result is outcome.winner else " "
        print(f"  {marker} {result.label:<8} T={result.writing_time:7.0f} "
              f"({result.wall_seconds:.2f}s)")
    for label in outcome.cancelled:
        print(f"    {label:<8} cancelled (straggler)")
    print(f"  incumbent events observed: {len(incumbents)} "
          "(1D entrants report none; 2D annealers stream their best-so-far cost)")
    print(f"manifest: {telemetry.path}")


if __name__ == "__main__":
    main()
