"""Batch throughput — instances/second through the planning runtime.

The cells the acceptance criteria watch: a 16-instance suite planned through
:func:`repro.runtime.run_jobs`, serially (``--jobs 1``, in-process) versus on
the worker pool (``--jobs N``).  ``extra_info`` records
``instances_per_second`` for each mode and the pooled entries also record the
speedup over the measured serial run plus the machine's CPU count, so the
``BENCH_<date>.json`` trajectory captures batch throughput alongside the
per-planner timings — and a reader can tell a dispatch regression from a
simply smaller machine (two workers on one CPU cannot beat one process).

The workload is E-BLOW-0 (the ablated flow: successive rounding + post-swap,
no hand-over ILP), which is deterministic by construction — pooled plans are
asserted bit-identical to the serial ones.  Each job crosses the process
boundary pickled on its own future, and the named cases travel by name; on
a multi-core box the pooled run should
show near-linear speedup (the jobs are embarrassingly parallel); on a
single-core CI runner it only checks that pool overhead is sane.

``test_batch_warm_pool_reuse`` times the same batch twice through one
persistent :class:`~repro.runtime.PlannerPool`: the second pass skips
process spawn, interpreter imports, and instance builds (each worker
memoises named cases per ``(case, scale)``), which is the serving-path win
warm pools exist for.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import LocalScheduler, PlannerPool, PlannerSpec, grid_jobs, run_jobs
from repro.workloads import SUITE_1D, SUITE_1M

# 12 standard 1D cases + the first 4 MCC cases at a second scale = 16 instances.
BATCH_CASES = list(SUITE_1D) + list(SUITE_1M)
BATCH_PLANNER = {"e-blow-0": PlannerSpec("eblow-1d", {"ablated": True})}

_serial: dict[float, tuple[float, list]] = {}


_WALL_CLOCK_STATS = ("runtime_seconds", "lp_solve_seconds", "stage_seconds")


def _strip_runtime(plan_dict: dict) -> dict:
    data = dict(plan_dict)
    data["stats"] = {
        k: v for k, v in data.get("stats", {}).items() if k not in _WALL_CLOCK_STATS
    }
    return data


def _batch_jobs(scale: float):
    jobs = grid_jobs(BATCH_CASES, BATCH_PLANNER, scale=scale)
    extra = grid_jobs(list(SUITE_1M)[:4], BATCH_PLANNER, scale=scale * 0.5)
    return (jobs + extra)[:16]


def _run(scale: float, workers: int, pool: PlannerPool | None = None) -> list:
    scheduler = LocalScheduler(workers, pool=pool)
    results = run_jobs(_batch_jobs(scale), scheduler=scheduler)
    assert len(results) == 16
    assert all(r.ok for r in results)
    return results


def _serial_baseline(scale: float) -> tuple[float, list]:
    if scale not in _serial:
        start = time.perf_counter()
        results = _run(scale, workers=1)
        _serial[scale] = (time.perf_counter() - start, results)
    return _serial[scale]


def _assert_bit_identical(serial_results, pooled) -> None:
    # Pooled plans must be bit-identical to serial ones (scheduling only) —
    # compare the actual plans, not just the objective scalars.
    for a, b in zip(serial_results, pooled):
        assert a.job_id == b.job_id
        assert a.writing_time == b.writing_time
        assert _strip_runtime(a.plan) == _strip_runtime(b.plan)


def test_batch_throughput_serial(benchmark, scale):
    start = time.perf_counter()
    results = benchmark.pedantic(lambda: _run(scale, workers=1), rounds=1, iterations=1)
    _serial[scale] = (time.perf_counter() - start, results)
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["instances"] = 16
    benchmark.extra_info["instances_per_second"] = round(16.0 / _serial[scale][0], 3)


@pytest.mark.parametrize("workers", [2, 4])
def test_batch_throughput_parallel(benchmark, scale, workers):
    serial_seconds, serial_results = _serial_baseline(scale)

    start = time.perf_counter()
    pooled = benchmark.pedantic(lambda: _run(scale, workers=workers), rounds=1, iterations=1)
    pooled_seconds = time.perf_counter() - start

    benchmark.extra_info["jobs"] = workers
    benchmark.extra_info["instances"] = 16
    benchmark.extra_info["cpus"] = os.cpu_count() or 1
    benchmark.extra_info["instances_per_second"] = round(16.0 / pooled_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(serial_seconds / pooled_seconds, 3)

    _assert_bit_identical(serial_results, pooled)


def test_batch_warm_pool_reuse(benchmark, scale):
    """Second batch over a persistent pool: no spawn, no re-deserialization."""
    serial_seconds, serial_results = _serial_baseline(scale)
    workers = 2

    with PlannerPool(max_workers=workers) as pool:
        start = time.perf_counter()
        _run(scale, workers=workers, pool=pool)  # cold: spawns + imports
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = benchmark.pedantic(
            lambda: _run(scale, workers=workers, pool=pool), rounds=1, iterations=1
        )
        warm_seconds = time.perf_counter() - start

    benchmark.extra_info["jobs"] = workers
    benchmark.extra_info["instances"] = 16
    benchmark.extra_info["cpus"] = os.cpu_count() or 1
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 3)
    benchmark.extra_info["warm_speedup_vs_cold"] = round(cold_seconds / warm_seconds, 3)
    benchmark.extra_info["warm_speedup_vs_serial"] = round(
        serial_seconds / warm_seconds, 3
    )

    _assert_bit_identical(serial_results, warm)
