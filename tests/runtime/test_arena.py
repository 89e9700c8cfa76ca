"""Shared-memory arena: round trips, identity stability, leak-free lifecycle.

The arena's contract has three legs:

* **fidelity** — an instance attached from a segment is indistinguishable
  from the exported one: equal model objects, bit-identical read-only kernel
  arrays, identical content digests;
* **identity** — job hashes and result-store keys never depend on whether a
  job was resolved in-process or rebuilt from a descriptor in a worker;
* **hygiene** — no ``/dev/shm`` segment survives pool shutdown, a worker
  crash, or the error paths in between.
"""

import glob
import os

import numpy as np
import pytest

from repro.runtime import (
    InstanceArena,
    LocalScheduler,
    PlanJob,
    PlannerPool,
    PlannerSpec,
    ResultStore,
    grid_jobs,
    instance_digest,
    run_jobs,
)
from repro.runtime import arena as arena_module
from repro.runtime.jobs import register_planner
from repro.workloads import build_instance


def _segments() -> list[str]:
    return glob.glob(f"/dev/shm/eblow-*-{os.getpid():x}-*")


@pytest.fixture(autouse=True)
def _fresh_attachments():
    arena_module._reset_attachments()
    yield
    arena_module._reset_attachments()


register_planner(
    "test-worker-crash",
    lambda options: _CrashingPlanner(),
    description="test-only planner that kills its worker process",
)


class _CrashingPlanner:
    def plan(self, instance):  # pragma: no cover — executed in the worker
        os._exit(17)


class TestRoundTrip:
    def test_attached_instance_is_equal_with_bit_identical_readonly_arrays(self):
        instance = build_instance("1T-1", 1.0)
        with InstanceArena() as arena:
            ref = arena.export(instance)
            attached = arena_module.attached_instance(ref)

            assert attached == instance
            assert instance_digest(attached) == instance_digest(instance)
            originals = {
                "repeats": instance.repeat_matrix_array(),
                "shot_delta": instance.shot_delta_array(),
                "reductions": instance.reduction_matrix_array(),
                "vsb_times": instance.vsb_times_array(),
            }
            cache = attached.metadata["_arrays"]
            for name, original in originals.items():
                view = cache[name]
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                assert np.array_equal(view, original)
                assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    view[...] = 0.0

    def test_export_is_idempotent_per_digest(self):
        instance = build_instance("1T-2", 1.0)
        with InstanceArena() as arena:
            a = arena.export(instance)
            b = arena.export(instance)
            assert a is b
            assert len(arena) == 1

    def test_attachment_cached_per_digest(self):
        instance = build_instance("1T-3", 1.0)
        with InstanceArena() as arena:
            ref = arena.export(instance)
            first = arena_module.attached_instance(ref)
            second = arena_module.attached_instance(ref)
            assert first is second

    def test_digest_mismatch_rejected(self):
        instance = build_instance("1T-1", 1.0)
        with InstanceArena() as arena:
            ref = arena.export(instance)
            bogus = arena_module.ArenaRef(segment=ref.segment, digest="0" * 64)
            with pytest.raises(ValueError, match="digest"):
                arena_module.attached_instance(bogus)


class TestIdentityStability:
    def test_descriptor_rebuild_preserves_job_identity_and_store_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        instance = build_instance("1T-1", 1.0)
        jobs = [
            PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance, label="a"),
            PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-2", scale=1.0, label="b"),
        ]
        with InstanceArena() as arena:
            for job in jobs:
                desc = job.describe(arena)
                rebuilt = desc.rebuild()
                assert rebuilt.job_id == job.job_id
                assert rebuilt.instance_hash == job.instance_hash
                assert rebuilt.config_hash == job.config_hash
                assert store.path_for(rebuilt) == store.path_for(job)

    def test_arena_digest_equals_inline_job_instance_hash(self):
        instance = build_instance("1T-4", 1.0)
        job = PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance)
        assert instance_digest(instance) == job.instance_hash

    def test_rebuilt_instance_payload_hashes_identically(self):
        # The JSON embedded in the segment must round-trip to the same
        # canonical bytes the parent hashed — floats included.
        instance = build_instance("1T-5", 1.0)
        with InstanceArena() as arena:
            ref = arena.export(instance)
            attached = arena_module.attached_instance(ref)
            job_a = PlanJob(spec=PlannerSpec("greedy-1d"), instance=instance)
            job_b = PlanJob(spec=PlannerSpec("greedy-1d"), instance=attached)
            assert job_a.job_id == job_b.job_id


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


class TestLifecycle:
    def test_no_segments_leak_after_pool_close(self):
        instance = build_instance("1T-1", 1.0)
        jobs = grid_jobs(
            [instance], {"g": PlannerSpec("greedy-1d"), "r": PlannerSpec("rows-1d")}
        )
        pool = PlannerPool(max_workers=2)
        with pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
            assert all(r.ok for r in results)
            assert len(_segments()) == 1  # one instance -> one segment
        assert _segments() == []
        assert pool._arena is None

    def test_no_segments_leak_after_worker_crash(self):
        instance = build_instance("1T-2", 1.0)
        crash = PlanJob(spec=PlannerSpec("test-worker-crash"), instance=instance)
        pool = PlannerPool(max_workers=2)
        with pool:
            [result] = run_jobs([crash], scheduler=LocalScheduler(pool=pool))
            assert not result.ok
            assert "broke" in (result.error or "")
        assert _segments() == []

    def test_close_is_idempotent_and_release_unlinks(self):
        instance = build_instance("1T-3", 1.0)
        arena = InstanceArena()
        ref = arena.export(instance)
        assert ref.digest in arena
        assert len(_segments()) == 1
        assert arena.release(ref.digest)
        assert not arena.release(ref.digest)
        assert _segments() == []
        arena.close()
        arena.close()

    def test_trim_bounds_resident_segments_and_respects_keep(self):
        arena = InstanceArena(capacity=2)
        try:
            refs = [arena.export(build_instance(f"1T-{i}", 1.0)) for i in (1, 2, 3)]
            assert len(arena) == 3  # trim is explicit, export never evicts
            assert arena.trim(keep={refs[0].digest}) == 1
            assert len(arena) == 2
            # FIFO minus keep: the oldest unkept digest (1T-2) went first.
            assert refs[0].digest in arena
            assert refs[1].digest not in arena
            assert refs[2].digest in arena
            # Re-export after eviction simply creates a fresh segment.
            again = arena.export(build_instance("1T-2", 1.0))
            assert again.digest == refs[1].digest
            assert again.segment != refs[1].segment
        finally:
            arena.close()
        assert _segments() == []

    def test_warm_pool_trims_arena_between_batches(self):
        instances = [build_instance(f"1T-{i}", 1.0) for i in (1, 2, 3)]
        with PlannerPool(max_workers=2) as pool:
            pool.arena.capacity = 1
            for instance in instances:
                results = run_jobs(
                    grid_jobs([instance], {"g": PlannerSpec("greedy-1d")}),
                    scheduler=LocalScheduler(pool=pool),
                )
                assert results[0].ok
                # The just-used digest is kept; older ones are evicted.
                assert len(pool.arena) == 1
        assert _segments() == []

    def test_rebuild_failure_is_isolated_to_its_job(self):
        from repro.runtime import JobDescriptor
        from repro.runtime.pool import _execute_descriptor

        good = PlanJob(spec=PlannerSpec("greedy-1d"), case="1T-1", scale=1.0)
        bad = JobDescriptor(
            spec=PlannerSpec("greedy-1d"),
            case=None,
            scale=None,
            timeout=None,
            label="bad",
            arena_ref=arena_module.ArenaRef(segment="eblow-gone", digest="0" * 64),
            instance_hash="0" * 64,
            config_hash="1" * 64,
            job_id="deadbeef",
        )
        results = [_execute_descriptor(desc) for desc in (bad, good.describe())]
        assert results[0].status == "error"
        assert results[0].job_id == "deadbeef"
        assert "rebuild" in results[0].error
        assert results[1].ok  # the job beside it in the batch still completes

    def test_failed_export_leaves_no_segment(self, monkeypatch):
        instance = build_instance("1T-4", 1.0)
        arena = InstanceArena()

        def boom(*args, **kwargs):
            raise RuntimeError("simulated export failure")

        monkeypatch.setattr(arena_module.np, "ndarray", boom)
        with pytest.raises(RuntimeError, match="simulated"):
            arena.export(instance)
        assert _segments() == []
        arena.close()


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

    def test_inline_pool_ignores_arena(self):
        instance = build_instance("1T-5", 1.0)
        jobs = grid_jobs([instance], {"g": PlannerSpec("greedy-1d")})
        with PlannerPool(max_workers=1) as pool:
            results = run_jobs(jobs, scheduler=LocalScheduler(pool=pool))
        assert results[0].ok
        assert _segments() == []


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
