"""Micro-benchmarks of the substrates (not a paper table; regression tracking).

These keep an eye on the performance-critical building blocks: the KD-tree
range query, the bipartite matching, LP construction + solve of the
simplified formulation, the profit / writing-time kernels, and the event
relay that carries plan events from pool workers to the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from bench_utils import cached_instance
from repro.core.kernels import RunningTimes, kernels_of
from repro.core.onedim.formulation import (
    SimplifiedLPStructure,
    build_simplified_formulation,
)
from repro.core.profits import compute_profits
from repro.dist import BrokerScheduler
from repro.events import PlanEvent
from repro.geometry import KDTree
from repro.matching import max_weight_matching
from repro.model.writing_time import region_writing_times
from repro.runtime import EventRelay, PlanJob, PlannerSpec
from repro.solver import solve_lp
from repro.workloads.generator import generate_tiny_1d_instance


def test_micro_kdtree_range_queries(benchmark):
    rng = random.Random(0)
    points = [
        ((rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)), i)
        for i in range(2000)
    ]
    tree = KDTree.build(points)
    queries = [
        (
            [rng.uniform(0, 80) for _ in range(3)],
            [rng.uniform(80, 100) for _ in range(3)],
        )
        for _ in range(100)
    ]

    def run():
        return sum(len(tree.query_range(lo, hi)) for lo, hi in queries)

    total = benchmark(run)
    assert total > 0


def test_micro_bipartite_matching(benchmark):
    rng = random.Random(1)
    weights = {
        (f"c{i}", f"r{j}"): rng.uniform(0.1, 10)
        for i in range(40)
        for j in range(25)
        if rng.random() < 0.4
    }
    matching = benchmark(lambda: max_weight_matching(weights))
    assert matching


def test_micro_simplified_lp_solve(benchmark, scale):
    instance = cached_instance("1M-1", scale)
    profits = compute_profits(instance)
    num_rows = instance.row_count()
    formulation = build_simplified_formulation(
        instance,
        profits,
        characters=list(range(instance.num_characters)),
        row_capacity=[instance.stencil.width] * num_rows,
        row_min_blank=[0.0] * num_rows,
        relax=True,
    )
    solution = benchmark(lambda: solve_lp(formulation.program))
    assert solution.status.has_solution


def test_micro_simplified_lp_build(benchmark, scale):
    """Constructing the LP of formulation (4): structure build + re-slice.

    This is the Python-heavy part of each successive-rounding iteration (the
    solve itself is HiGHS-dominated); the seed implementation materialized a
    dict-based ``LinearProgram`` per iteration.
    """
    instance = cached_instance("1M-1", scale)
    profits = compute_profits(instance)
    num_rows = instance.row_count()
    characters = list(range(instance.num_characters))
    row_capacity = [instance.stencil.width] * num_rows
    row_min_blank = [0.0] * num_rows
    unsolved = set(characters)

    def run():
        structure = SimplifiedLPStructure(instance, characters, row_capacity)
        # Touch the per-iteration re-slice path as well (no solve).
        active = structure.active_pairs(row_capacity, unsolved)
        return int(active.sum())

    total = benchmark(run)
    assert total > 0


def test_micro_profit_kernel(benchmark, scale):
    """Eqn. 6 profit recomputation — runs once per LP iteration."""
    instance = cached_instance("1M-1", scale)
    times = instance.vsb_times()

    def run():
        acc = 0.0
        for _ in range(20):
            acc += compute_profits(instance, times)[0]
        return acc

    total = benchmark(run)
    assert total != 0.0


def test_micro_writing_time_eval(benchmark, scale):
    """Eqn. 1 region-time evaluation for medium-size selections."""
    instance = cached_instance("1M-1", scale)
    rng = random.Random(3)
    names = [ch.name for ch in instance.characters]
    selections = [
        rng.sample(names, k=len(names) // 3) for _ in range(20)
    ]

    def run():
        return sum(max(region_writing_times(instance, s)) for s in selections)

    total = benchmark(run)
    assert total > 0


def test_micro_incremental_times(benchmark, scale):
    """Incremental O(P) select/deselect updates of the running time vector."""
    instance = cached_instance("1M-1", scale)
    kernels = kernels_of(instance)
    rng = random.Random(4)
    moves = [rng.randrange(instance.num_characters) for _ in range(2000)]

    def run():
        running = RunningTimes(kernels)
        acc = 0.0
        for i in moves:
            if i in running:
                running.deselect(i)
            else:
                running.select(i)
            acc += running.total()
        return acc

    total = benchmark(run)
    assert total > 0


def _relay_puts(queue, count: int) -> float:
    """Worker side of the relay cell: microseconds per ``put`` of one event."""
    event = PlanEvent(
        type="temperature",
        seq=1,
        elapsed=0.5,
        payload={
            "temperature": 12.5, "cost": 3141.5, "moves": 400, "label": "eblow-2d",
            "worker_pid": os.getpid(), "job_id": "0" * 16,
        },
    ).to_dict()
    queue.put(event)  # the first put opens the connection: keep it untimed
    start = time.perf_counter()
    for _ in range(count):
        queue.put(event)
    return (time.perf_counter() - start) / count * 1e6


def test_micro_event_relay(benchmark):
    """One pool worker streams events to the parent's consumer.

    ``us_per_event_put`` is what a planner pays per emitted event (the
    worker's ``put``); ``us_per_event_delivered`` divides the wall time from
    dispatch until ``close()`` has handed the last event to the consumer.
    """
    count = 2000
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as executor:
        executor.submit(int).result()  # worker started and imported

        def run():
            seen = []
            start = time.perf_counter()
            with EventRelay(seen.append) as relay:
                put_us = executor.submit(_relay_puts, relay.queue, count).result()
            delivered_us = (time.perf_counter() - start) / (count + 1) * 1e6
            assert len(seen) == count + 1
            return put_us, delivered_us

        put_us, delivered_us = benchmark.pedantic(run, rounds=5, iterations=1)
    benchmark.extra_info["events"] = count
    benchmark.extra_info["us_per_event_put"] = round(put_us, 2)
    benchmark.extra_info["us_per_event_delivered"] = round(delivered_us, 2)


def test_micro_broker_round_trip(benchmark, tmp_path):
    """Enqueue to result through one idle same-host broker worker.

    ``ms_per_job`` is the wall time from a driver's enqueue until it holds
    the committed result, one job at a time, through one ``eblow worker``
    subprocess that is idle between jobs.  Each job is a distinct tiny 1D
    instance under ``greedy-1d`` (well under a millisecond of planning), so
    the cell measures the spool: claim, commit, and the waits between them.
    """
    count = 10
    seeds = iter(range(1, 1000))

    def job():
        instance = generate_tiny_1d_instance(10, seed=next(seeds))
        return PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance)

    with BrokerScheduler(tmp_path / "spool", workers=1, wait_timeout=60.0) as scheduler:
        [warm] = scheduler.run_jobs([job()])  # worker started and imported
        assert warm.ok

        def run():
            jobs = [job() for _ in range(count)]
            start = time.perf_counter()
            for item in jobs:
                [result] = scheduler.run_jobs([item])
                assert result.ok
            return (time.perf_counter() - start) / count * 1e3

        ms_per_job = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["jobs"] = count
    benchmark.extra_info["poll_s"] = scheduler.poll_interval
    benchmark.extra_info["ms_per_job"] = round(ms_per_job, 2)
