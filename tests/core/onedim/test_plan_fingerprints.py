"""Golden fingerprints of E-BLOW-1D plans.

Each entry pins one plan of the default ``eblow-1d`` flow: its writing time,
its selected count, a digest of the exact row placements, and how many
times the hand-over MILP of Algorithm 2 ran.  Twenty tiny single-row
instances (8-14 characters, seeds 1-4) cover the paths with and without
that MILP: seven of them hand over.  The 1M-1 and 1D-2 cells at scale 0.06
hand over too, with more rows.

The tiny set is planned again as inline-instance jobs through a two-worker
pool, so the pickled job transport is pinned end to end: the plans a worker
returns must carry the same digests.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.onedim import EBlow1DPlanner, fast_convergence
from repro.runtime import LocalScheduler, PlanJob, PlannerSpec, run_jobs
from repro.workloads import build_instance, generate_tiny_1d_instance

# name -> (writing_time, selected count, row placement digest, MILP calls)
GOLDEN = {
    "1T-n8-s1": (184.0, 6, "058e9ffcb57aa546", 0),
    "1T-n8-s2": (162.0, 6, "822f994bc47a0e66", 0),
    "1T-n8-s3": (147.0, 6, "609b14dead67eddc", 0),
    "1T-n8-s4": (229.0, 6, "c9bb444397930080", 1),
    "1T-n10-s1": (668.0, 6, "058e9ffcb57aa546", 0),
    "1T-n10-s2": (293.0, 6, "5881df46e7ea386d", 0),
    "1T-n10-s3": (453.0, 6, "f6aa2230a0f46521", 0),
    "1T-n10-s4": (550.0, 6, "2a9ca018736c6721", 1),
    "1T-n11-s1": (730.0, 6, "058e9ffcb57aa546", 0),
    "1T-n11-s2": (473.0, 6, "236213f49bb51791", 0),
    "1T-n11-s3": (618.0, 6, "f6aa2230a0f46521", 0),
    "1T-n11-s4": (731.0, 6, "fdee1f1b4b855f98", 1),
    "1T-n12-s1": (935.0, 6, "058e9ffcb57aa546", 0),
    "1T-n12-s2": (697.0, 6, "b8ef8d79b56ecf52", 0),
    "1T-n12-s3": (708.0, 6, "f6aa2230a0f46521", 0),
    "1T-n12-s4": (767.0, 6, "fdee1f1b4b855f98", 1),
    "1T-n14-s1": (1276.0, 6, "40edeaf495ef65f1", 0),
    "1T-n14-s2": (1307.0, 6, "f8d3de7d6c738d44", 1),
    "1T-n14-s3": (1231.0, 6, "0c926d7a4052a465", 1),
    "1T-n14-s4": (1292.0, 6, "586d140eecc1ae66", 1),
    "1M-1": (4868.0, 56, "2545feda604d85d3", 1),
    "1D-2": (7311.0, 41, "845ac04a0c769b99", 1),
}

TINY = [name for name in GOLDEN if name.startswith("1T-")]


def _instance(name: str):
    if name.startswith("1T-"):
        size, seed = name.split("-")[1:]  # "1T-n8-s1": 8 characters, seed 1
        return generate_tiny_1d_instance(
            num_characters=int(size[1:]), seed=int(seed[1:]), row_length=200.0, name=name
        )
    return build_instance(name, 0.06)


def placement_digest(row_placements) -> str:
    """SHA-256 prefix of the sorted ``(name, row, x)`` placements as JSON.

    JSON writes floats by ``repr``, which round-trips, so the digest pins
    every offset bit for bit.
    """
    placements = sorted((p["name"], p["row"], p["x"]) for p in row_placements)
    return hashlib.sha256(json.dumps(placements).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_plan_matches_its_fingerprint(name, monkeypatch):
    calls = []
    solve = fast_convergence.solve_ilp

    def counting_solve(program, **kwargs):
        calls.append(program)
        return solve(program, **kwargs)

    monkeypatch.setattr(fast_convergence, "solve_ilp", counting_solve)
    plan = EBlow1DPlanner().plan(_instance(name))
    digest = placement_digest([p.to_dict() for p in plan.row_placements])
    assert (plan.stats["writing_time"], plan.num_selected, digest, len(calls)) == GOLDEN[name]


def test_pooled_inline_plans_match_their_fingerprints():
    jobs = [
        PlanJob(spec=PlannerSpec("eblow-1d"), instance=_instance(name), label=name)
        for name in TINY
    ]
    results = run_jobs(jobs, scheduler=LocalScheduler(2))
    for name, result in zip(TINY, results):
        assert result.ok, result.error
        assert result.worker_pid != os.getpid()  # planned in a pool worker
        digest = placement_digest(result.plan["row_placements"])
        assert (result.writing_time, result.num_selected, digest) == GOLDEN[name][:3]
