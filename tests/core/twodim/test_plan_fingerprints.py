"""Golden fingerprints of E-BLOW-2D plans.

Speed work on the annealer (the incremental packer, the in-place cost hook,
the proposal sampler) must leave every 2D plan bit-identical.  Each entry
pins one plan under the default configuration: its writing time, the
annealing move and acceptance counts per move kind, a digest of the exact
character placements, and how many clusters were annealed.  The instances
straddle ``IncrementalPacker._FUSED_LIMIT``: sixteen tiny 2T instances
(6-12 characters) and the 2D-4 and 2M-4 cells at scale 0.06 anneal no
more clusters than the limit, the 2M-8 cell at 0.06 more (51).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.twodim import EBlow2DPlanner
from repro.workloads import build_instance, generate_tiny_2d_instance

KINDS = ("swap_both", "swap_negative", "swap_positive")

# name -> (writing_time, annealing_moves, annealing_accepted,
#          (proposed, accepted, improved) per move kind in KINDS order,
#          placement digest, clusters annealed)
GOLDEN = {
    "2T-n6-s1": (
        17.0, 624, 467, ((198, 198, 0), (211, 142, 0), (215, 127, 0)),
        "4f07e00b7d2f2a7a", 6,
    ),
    "2T-n6-s2": (
        15.0, 624, 467, ((198, 198, 0), (211, 142, 0), (215, 127, 0)),
        "f7cbdbb521fd7497", 6,
    ),
    "2T-n6-s3": (
        17.0, 624, 467, ((198, 198, 0), (211, 142, 0), (215, 127, 0)),
        "f02f8d4279df6c2e", 6,
    ),
    "2T-n6-s4": (
        21.0, 624, 386, ((202, 176, 0), (205, 95, 0), (217, 115, 0)),
        "42cf64d0536d08b4", 5,
    ),
    "2T-n8-s1": (
        22.0, 624, 268, ((209, 166, 4), (199, 47, 2), (216, 55, 2)),
        "070a224d11bd0bb1", 7,
    ),
    "2T-n8-s2": (
        22.0, 624, 346, ((177, 177, 0), (226, 95, 0), (221, 74, 0)),
        "613bff5978081cc7", 8,
    ),
    "2T-n8-s3": (
        21.0, 624, 346, ((177, 177, 0), (226, 95, 0), (221, 74, 0)),
        "d2e07b6f6d917860", 8,
    ),
    "2T-n8-s4": (
        25.0, 624, 236, ((213, 139, 0), (207, 44, 0), (204, 53, 0)),
        "f50728c26824ab70", 6,
    ),
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


def _instance(name: str):
    if name.startswith("2T-"):
        size, seed = name.split("-")[1:]  # "2T-n6-s1": 6 characters, seed 1
        return generate_tiny_2d_instance(
            num_characters=int(size[1:]), seed=int(seed[1:]), stencil_size=120.0, name=name
        )
    return build_instance(name, 0.06)


def placement_digest(plan) -> str:
    """SHA-256 prefix of the sorted ``(name, x, y)`` placements as JSON.

    JSON writes floats by ``repr``, which round-trips, so the digest pins
    every coordinate bit for bit.
    """
    placements = sorted((p.name, p.x, p.y) for p in plan.placements2d)
    return hashlib.sha256(json.dumps(placements).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_plan_matches_its_fingerprint(name):
    plan = EBlow2DPlanner().plan(_instance(name))
    stats = plan.stats
    assert tuple(stats["move_acceptance"]) == KINDS
    fingerprint = (
        stats["writing_time"],
        stats["annealing_moves"],
        stats["annealing_accepted"],
        tuple(tuple(stats["move_acceptance"][kind]) for kind in KINDS),
        placement_digest(plan),
        stats["num_clusters"],
    )
    assert fingerprint == GOLDEN[name]
