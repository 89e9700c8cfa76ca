"""Seeded benchmark inputs.

Every instance is a pure function of the workload seed.  Seed 0 rebuilds
the bench-scale suite cases (``repro.workloads.build_instance(name, 0.06)``)
exactly; any other seed keeps each family's parameters (character count,
regions, width range, stencil edge) and changes only the generator seed.
"""

from __future__ import annotations

import math

from repro.experiments import TABLE3_CASES, TABLE4_CASES
from repro.workloads import ALL_CASES
from repro.workloads.generator import (
    generate_1d_instance,
    generate_2d_instance,
    generate_tiny_1d_instance,
    generate_tiny_2d_instance,
)

#: Instance scale of the plan-* workloads: the bench-scale suite of
#: ``benchmarks/`` and of the ``BENCH_*.json`` trajectory files.
SCALE = 0.06
#: Distance between the generator seeds of consecutive workload seeds; larger
#: than the spread of the suite's own case seeds, so no two (family, seed)
#: pairs share a generator seed.
SEED_STRIDE = 10007
#: Character counts of the Table-5 tiny families (1T-1..5, 2T-1..4).
TINY_SIZES = {"1T": (8, 10, 11, 12, 14), "2T": (6, 8, 10, 12)}

FAMILIES = {"plan-1d": TABLE3_CASES, "plan-2d": TABLE4_CASES}
PLANNERS = {"1D": "eblow-1d", "2D": "eblow-2d"}


def family_instance(case_name: str, seed: int, round_: int = 0):
    """The ``case_name`` family instance of workload ``seed``, round ``round_``.

    ``(seed=0, round_=0)`` is the suite case itself.  Later rounds of the
    same run draw fresh instances of the same family.
    """
    case = ALL_CASES[case_name]
    gen_seed = case.seed + SEED_STRIDE * (seed * 1000 + round_)
    num_characters = max(20, int(round(case.num_characters * SCALE)))
    edge = case.stencil * math.sqrt(SCALE) * case.stencil_factor
    common = dict(
        num_characters=num_characters,
        num_regions=case.num_regions,
        seed=gen_seed,
        stencil_width=edge,
        stencil_height=edge,
        width_range=(case.width_lo, case.width_hi),
        name=case.name,
    )
    if case.kind == "1D":
        return generate_1d_instance(**common)
    return generate_2d_instance(height_range=(case.width_lo, case.width_hi), **common)


def tiny_instance(kind: str, size: int, gen_seed: int):
    """One Table-5-family instance (``kind`` is ``1T`` or ``2T``)."""
    if kind == "1T":
        return generate_tiny_1d_instance(
            num_characters=size, seed=gen_seed, row_length=200.0,
            name=f"1T-n{size}-s{gen_seed}",
        )
    return generate_tiny_2d_instance(
        num_characters=size, seed=gen_seed, stencil_size=120.0,
        name=f"2T-n{size}-s{gen_seed}",
    )


def planner_for(instance) -> str:
    return PLANNERS[instance.kind]


def family_of(instance) -> str:
    """The input family: a suite case name, or a tiny kind and size (``1T-n10``)."""
    return instance.name.rsplit("-s", 1)[0]


def warmup_instances(kinds):
    """One tiny instance per planner kind, never part of a measured stream."""
    return [tiny_instance(kind, TINY_SIZES[kind][-1], 9_999_991 + i)
            for i, kind in enumerate(kinds)]


class TinyStream:
    """Fresh tiny instances for one serve connection.

    Kinds alternate and each kind cycles through its family's sizes, so every
    seed sends the same mix of sizes; the seed changes only the instances.
    Connections draw from disjoint generator-seed ranges, so no instance is
    sent by two connections unless the schedule shares it on purpose.
    """

    def __init__(self, seed: int, connection: int) -> None:
        self._next_seed = 1_000_000 * (seed * 16 + connection + 1)
        self._count = 0

    def next(self, kind: str | None = None, size: int | None = None):
        """The next fresh instance (``kind``/``size`` pin the family member)."""
        kind = kind or ("1T", "2T")[self._count % 2]
        sizes = TINY_SIZES[kind]
        size = size or sizes[(self._count // 2) % len(sizes)]
        self._count += 1
        self._next_seed += 1
        return tiny_instance(kind, size, self._next_seed)
