"""Golden fingerprints of E-BLOW-2D plans.

Speed work on the annealer (the incremental packer, the in-place cost hook,
the proposal sampler) must leave every 2D plan bit-identical.  Each entry
pins one plan under the default configuration: its writing time, the
annealing move and acceptance counts per move kind, a digest of the exact
character placements, and how many clusters were annealed.  The instances
straddle ``IncrementalPacker._FUSED_LIMIT``: sixteen tiny 2T instances
(6-12 characters) and the 2D-4 and 2M-4 cells at scale 0.06 anneal no
more clusters than the limit, the 2M-8 cell at 0.06 more (51).

The annealer stops at its cost floor, the all-inside writing time: seven
tiny plans start there and make no move, and 2T-n8-s1 reaches it after 73
moves.  :func:`test_stopping_at_the_cost_floor_keeps_the_plan` checks that
the whole ladder, walked with no bound, ends at the same plans.

``GOLDEN_SA`` pins the plain [24] annealer (``sa-2d``: no pre-filter, no
clustering, one block per character) the same way.  Its 2D-4 cell at 0.06
anneals 60 blocks on the support walk, and its 2M-5 cell at 0.035 anneals
140, so predecessor rows past ``IncrementalPacker._PY_ROW_LIMIT`` go
through ``_LongRows``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.twodim import EBlow2DConfig, EBlow2DPlanner
from repro.floorplan import FixedOutlinePacker
from repro.obs import metrics as obs_metrics
from repro.workloads import build_instance, generate_tiny_2d_instance

KINDS = ("swap_both", "swap_negative", "swap_positive")

# name -> (writing_time, annealing_moves, annealing_accepted,
#          (proposed, accepted, improved) per move kind in KINDS order,
#          placement digest, clusters annealed)
GOLDEN = {
    "2T-n6-s1": (17.0, 0, 0, (), "4f07e00b7d2f2a7a", 6),
    "2T-n6-s2": (15.0, 0, 0, (), "f7cbdbb521fd7497", 6),
    "2T-n6-s3": (17.0, 0, 0, (), "f02f8d4279df6c2e", 6),
    "2T-n6-s4": (21.0, 0, 0, (), "42cf64d0536d08b4", 5),
    "2T-n8-s1": (
        22.0, 73, 37, ((33, 19, 4), (18, 6, 2), (22, 12, 2)),
        "070a224d11bd0bb1", 7,
    ),
    "2T-n8-s2": (22.0, 0, 0, (), "613bff5978081cc7", 8),
    "2T-n8-s3": (21.0, 0, 0, (), "d2e07b6f6d917860", 8),
    "2T-n8-s4": (25.0, 0, 0, (), "f50728c26824ab70", 6),
    "2T-n10-s1": (
        66.0, 624, 201, ((195, 130, 39), (203, 41, 11), (226, 30, 6)),
        "28ec6bb7933eb11a", 9,
    ),
    "2T-n10-s2": (
        53.0, 624, 254, ((181, 143, 37), (225, 47, 5), (218, 64, 12)),
        "03abbed5fa315f74", 10,
    ),
    "2T-n10-s3": (
        50.0, 624, 246, ((188, 157, 39), (216, 36, 8), (220, 53, 12)),
        "ce62aec054241745", 10,
    ),
    "2T-n10-s4": (
        79.0, 624, 159, ((198, 84, 25), (208, 31, 2), (218, 44, 9)),
        "02004059f61edc44", 8,
    ),
    "2T-n12-s1": (
        237.0, 624, 216, ((199, 132, 54), (206, 28, 9), (219, 56, 19)),
        "be28663b7e4372ad", 11,
    ),
    "2T-n12-s2": (
        244.0, 624, 212, ((185, 97, 41), (203, 53, 15), (236, 62, 16)),
        "49c6de6e4861802f", 11,
    ),
    "2T-n12-s3": (
        212.0, 624, 185, ((205, 93, 24), (196, 43, 8), (223, 49, 11)),
        "e9adeef838059b85", 11,
    ),
    "2T-n12-s4": (
        305.0, 624, 173, ((189, 79, 28), (209, 37, 9), (226, 57, 17)),
        "413aef17bd466a3e", 9,
    ),
    "2D-4": (
        33580.0, 858, 518, ((284, 187, 91), (263, 153, 62), (311, 178, 64)),
        "d4965adcd201ee75", 17,
    ),
    "2M-4": (
        31277.0, 702, 384, ((214, 118, 59), (257, 131, 59), (231, 135, 62)),
        "5e413219dae6b7af", 14,
    ),
    "2M-8": (
        139075.0, 2574, 1786, ((846, 626, 279), (856, 547, 223), (872, 613, 252)),
        "392dc9e5bcb55747", 51,
    ),
}

# (name, scale) -> the same fingerprint, for the plain [24] annealer (tiny
# 2T instances have no scale).
GOLDEN_SA = {
    ("2T-n10-s1", None): (
        66.0, 624, 255, ((202, 162, 38), (214, 42, 6), (208, 51, 13)),
        "a64800d167646057", 10,
    ),
    ("2T-n12-s1", None): (
        235.0, 624, 234, ((190, 106, 40), (209, 48, 14), (225, 80, 20)),
        "f2789f9809dfbc2c", 12,
    ),
    ("2D-4", 0.06): (
        37887.0, 3042, 2342, ((973, 795, 272), (1051, 773, 306), (1018, 774, 317)),
        "b89b4702dc9132fe", 60,
    ),
    ("2M-5", 0.035): (
        34698.0, 7098, 4894, ((2395, 1718, 573), (2329, 1509, 587), (2374, 1667, 581)),
        "4d3942921888f98d", 140,
    ),
}


def _instance(name: str, scale: float | None = 0.06):
    if name.startswith("2T-"):
        size, seed = name.split("-")[1:]  # "2T-n6-s1": 6 characters, seed 1
        return generate_tiny_2d_instance(
            num_characters=int(size[1:]), seed=int(seed[1:]), stencil_size=120.0, name=name
        )
    return build_instance(name, scale)


def placement_digest(plan) -> str:
    """SHA-256 prefix of the sorted ``(name, x, y)`` placements as JSON.

    JSON writes floats by ``repr``, which round-trips, so the digest pins
    every coordinate bit for bit.
    """
    placements = sorted((p.name, p.x, p.y) for p in plan.placements2d)
    return hashlib.sha256(json.dumps(placements).encode()).hexdigest()[:16]


def fingerprint(plan) -> tuple:
    stats = plan.stats
    acceptance = stats["move_acceptance"]
    # A plan whose start sits at the cost floor makes no move at all.
    assert tuple(acceptance) == (KINDS if stats["annealing_moves"] else ())
    return (
        stats["writing_time"],
        stats["annealing_moves"],
        stats["annealing_accepted"],
        tuple(tuple(counts) for counts in acceptance.values()),
        placement_digest(plan),
        stats["num_clusters"],
    )


@pytest.mark.parametrize("name", list(GOLDEN))
def test_plan_matches_its_fingerprint(name):
    plan = EBlow2DPlanner().plan(_instance(name))
    assert fingerprint(plan) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, scale", list(GOLDEN_SA), ids=[n if s is None else f"{n}@{s}" for n, s in GOLDEN_SA]
)
def test_sa_2d_plan_matches_its_fingerprint(name, scale):
    config = EBlow2DConfig(use_prefilter=False, use_clustering=False)
    plan = EBlow2DPlanner(config).plan(_instance(name, scale))
    assert fingerprint(plan) == GOLDEN_SA[(name, scale)]


TINY = [name for name in GOLDEN if name.startswith("2T-")]


@pytest.mark.parametrize("name", TINY)
def test_stopping_at_the_cost_floor_keeps_the_plan(name, monkeypatch):
    """The whole ladder, walked with no bound, ends at the plan the stopped
    search returns: the same inside set, placements and writing time."""
    stopped = EBlow2DPlanner().plan(_instance(name))
    monkeypatch.setattr(FixedOutlinePacker, "cost_floor", lambda self: None)
    full = EBlow2DPlanner().plan(_instance(name))
    assert full.stats["annealing_moves"] == 624
    assert sorted(p.name for p in stopped.placements2d) == sorted(
        p.name for p in full.placements2d
    )
    assert placement_digest(stopped) == placement_digest(full)
    assert stopped.stats["writing_time"] == full.stats["writing_time"]


def test_floor_stop_is_counted_once():
    """A 2T-n6 plan whose start fits counts one floor stop, one run, no move."""
    with obs_metrics.collecting() as registry:
        plan = EBlow2DPlanner().plan(_instance("2T-n6-s1"))
        metrics = registry.snapshot()["metrics"]
    assert plan.stats["annealing_moves"] == 0

    def total(name):
        return sum(series["value"] for series in metrics[name]["series"])

    assert total("anneal_floor_stops_total") == 1
    assert total("anneal_runs_total") == 1
    assert total("anneal_moves_total") == 0
