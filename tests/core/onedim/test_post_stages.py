"""Unit tests for post-swap and post-insertion (Section 3.5)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.onedim.post_insertion import PostInsertionConfig, post_insertion
from repro.core.onedim.post_swap import PostSwapConfig, post_swap
from repro.core.onedim.refinement import refine_row_order
from repro.model import StencilPlan, system_writing_time


def initial_rows(instance, fraction=0.5):
    """A deliberately mediocre starting plan: first-fit over a subset."""
    width_limit = instance.stencil.width
    num_rows = instance.row_count()
    rows = [[] for _ in range(num_rows)]
    count = int(instance.num_characters * fraction)
    for ch in instance.characters[:count]:
        for r in range(num_rows):
            trial = rows[r] + [ch]
            if refine_row_order(trial).width <= width_limit:
                rows[r] = trial
                break
    # Store the *refined* order so the starting rows are geometrically legal.
    return [list(refine_row_order(row).order) for row in rows]


class TestPostSwap:
    def test_never_increases_writing_time(self, small_mcc_instance):
        inst = small_mcc_instance
        rows = initial_rows(inst)
        before = system_writing_time(inst, [n for r in rows for n in r])
        new_rows, swaps = post_swap(inst, rows)
        after = system_writing_time(inst, [n for r in new_rows for n in r])
        assert after <= before + 1e-9
        assert swaps >= 0

    def test_keeps_rows_within_stencil(self, small_mcc_instance):
        inst = small_mcc_instance
        new_rows, _ = post_swap(inst, initial_rows(inst))
        plan = StencilPlan.from_rows(inst, new_rows)
        plan.validate()

    def test_no_duplicates_after_swapping(self, small_mcc_instance):
        inst = small_mcc_instance
        new_rows, _ = post_swap(inst, initial_rows(inst))
        names = [n for r in new_rows for n in r]
        assert len(names) == len(set(names))

    def test_input_rows_not_mutated(self, small_mcc_instance):
        inst = small_mcc_instance
        rows = initial_rows(inst)
        snapshot = [list(r) for r in rows]
        post_swap(inst, rows)
        assert rows == snapshot

    def test_plan_does_not_depend_on_string_hash_seed(self):
        """Equal-profit swap targets are tried in instance order.

        On this instance two on-stencil characters tie on profit; ordering
        them by a set of names made the swap (and the writing time: 819 vs
        706 shots) follow ``PYTHONHASHSEED``.
        """
        script = (
            "import json, repro\n"
            "from repro.workloads.generator import generate_tiny_1d_instance\n"
            "instance = generate_tiny_1d_instance(\n"
            "    num_characters=10, seed=16098000013, row_length=200.0)\n"
            "result = repro.plan(instance, planner='eblow')\n"
            "print(json.dumps([result.writing_time, result.plan['row_placements']]))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        plans = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            plans.append(json.loads(proc.stdout))
        assert plans[0] == plans[1]


class TestPostInsertion:
    def test_only_adds_characters(self, small_mcc_instance):
        inst = small_mcc_instance
        rows = initial_rows(inst, fraction=0.4)
        before = {n for r in rows for n in r}
        new_rows, inserted = post_insertion(inst, rows)
        after = {n for r in new_rows for n in r}
        assert before <= after
        assert len(after) - len(before) == inserted

    def test_writing_time_never_increases(self, small_mcc_instance):
        inst = small_mcc_instance
        rows = initial_rows(inst, fraction=0.4)
        before = system_writing_time(inst, [n for r in rows for n in r])
        new_rows, _ = post_insertion(inst, rows)
        after = system_writing_time(inst, [n for r in new_rows for n in r])
        assert after <= before + 1e-9

    def test_rows_remain_legal(self, small_mcc_instance):
        inst = small_mcc_instance
        new_rows, _ = post_insertion(inst, initial_rows(inst, fraction=0.4))
        plan = StencilPlan.from_rows(inst, new_rows)
        plan.validate()

    def test_at_most_one_insertion_per_row_per_round(self, small_mcc_instance):
        inst = small_mcc_instance
        rows = initial_rows(inst, fraction=0.4)
        config = PostInsertionConfig(rounds=1)
        new_rows, inserted = post_insertion(inst, rows, config)
        assert inserted <= len(new_rows)

    def test_no_space_no_insertion(self, handmade_1d_instance):
        inst = handmade_1d_instance
        # Fill both rows essentially to capacity (stencil width 100).
        rows = [["C", "A"], ["D", "B"]]
        config = PostInsertionConfig(min_row_slack=1000.0)
        new_rows, inserted = post_insertion(inst, rows, config)
        assert inserted == 0
        assert new_rows == rows
