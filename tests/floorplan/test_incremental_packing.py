"""Property tests for the incremental sequence-pair packer.

The invariant under test: after any sequence of apply/revert moves, the
:class:`IncrementalPacker`'s positions, width, and height are **exactly**
(``==``, not approx) those of a fresh vectorized packing of the same
sequence pair over the current block geometry — the lockstep oracle the
copy-based annealing engine evaluates through.  The dict-based scalar
packer is additionally checked to float tolerance (its max/add association
differs, so exactness is not expected there).
"""

from __future__ import annotations

import random

import pytest

from repro.floorplan import Block, SequencePair, pack_sequence_pair
from repro.floorplan.packing import (
    IncrementalPacker,
    PackingContext,
    Rotate,
    ShiftNegative,
    ShiftPositive,
    SwapBoth,
    SwapNegative,
    SwapPositive,
)


def _random_blocks(n: int, rng: random.Random) -> dict[str, Block]:
    return {
        f"b{i:03d}": Block(
            f"b{i:03d}",
            width=rng.uniform(10, 50),
            height=rng.uniform(10, 50),
            blank_left=rng.uniform(0, 5),
            blank_right=rng.uniform(0, 5),
            blank_top=rng.uniform(0, 5),
            blank_bottom=rng.uniform(0, 5),
        )
        for i in range(n)
    }


def _random_move(n: int, rng: random.Random):
    kind = rng.randrange(6)
    i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
    if kind == 0:
        return SwapPositive(i, j)
    if kind == 1:
        return SwapNegative(i, j)
    if kind == 2:
        return SwapBoth(i, j)
    if kind == 3:
        return Rotate(rng.randrange(n))
    if kind == 4:
        return ShiftNegative(i, j)
    return ShiftPositive(i, j)


def _assert_exact(packer: IncrementalPacker, context_note) -> None:
    pair = packer.snapshot_pair()
    blocks = packer.current_blocks()
    oracle = PackingContext(blocks).pack(pair)
    got = packer.pack_result()
    for name in blocks:
        assert got.positions[name] == oracle.positions[name], (context_note, name)
    assert got.width == oracle.width, context_note
    assert got.height == oracle.height, context_note
    scalar = pack_sequence_pair(pair, blocks)
    for name in blocks:
        assert got.positions[name] == pytest.approx(scalar.positions[name]), (
            context_note,
            name,
        )
    assert got.width == pytest.approx(scalar.width)
    assert got.height == pytest.approx(scalar.height)


def _by_position(packer: IncrementalPacker) -> list:
    """``(occupant, (x, y))`` of every Gamma- position."""
    positions = packer.pack_result().positions
    return [(name, positions[name]) for name in packer.snapshot_pair().negative]


@pytest.mark.parametrize(
    "n,steps,seed,rebase",
    [
        (2, 150, 0, 7),
        (9, 700, 1, 23),
        (16, 900, 2, 64),
        (90, 250, 3, 97),
        (150, 100, 4, 53),  # crosses the pure-Python/NumPy row threshold
    ],
)
def test_apply_revert_matches_fresh_packing(n, steps, seed, rebase):
    """Thousands of randomized apply/revert moves stay exactly in lockstep.

    Every apply must also report as touched each Gamma- position whose
    occupant or coordinates it changed: callers rescore only those.
    """
    rng = random.Random(seed)
    blocks = _random_blocks(n, rng)
    pair = SequencePair.initial(list(blocks), rng)
    packer = IncrementalPacker(blocks, pair, rebase_interval=rebase)
    _assert_exact(packer, ("init", n))
    kinds = set()
    for step in range(steps):
        move = _random_move(n, rng)
        before = _by_position(packer)
        move.apply(packer)
        kinds.add(move.kind)
        _assert_exact(packer, (n, step, "apply", move.kind))
        after = _by_position(packer)
        changed = {p for p in range(n) if before[p] != after[p]}
        assert changed <= set(packer.touched), (n, step, move.kind)
        if rng.random() < 0.45:
            move.revert(packer)
            _assert_exact(packer, (n, step, "revert", move.kind))
    assert len(kinds) == 6


def test_snapshot_round_trips_through_sequence_pair():
    rng = random.Random(11)
    blocks = _random_blocks(8, rng)
    pair = SequencePair.initial(list(blocks), rng)
    packer = IncrementalPacker(blocks, pair)
    snap = packer.snapshot_pair()
    assert snap == pair
    move = SwapBoth(1, 5)
    move.apply(packer)
    assert packer.snapshot_pair() == pair.swap_both(pair.positive[1], pair.positive[5])
    move.revert(packer)
    assert packer.snapshot_pair() == pair


def test_rotation_transposes_geometry_and_is_involutive():
    rng = random.Random(3)
    blocks = _random_blocks(6, rng)
    pair = SequencePair.initial(list(blocks), rng)
    packer = IncrementalPacker(blocks, pair)
    name = packer.names[2]
    before = packer.current_blocks()[name]
    move = Rotate(2)
    move.apply(packer)
    after = packer.current_blocks()[name]
    assert (after.width, after.height) == (before.height, before.width)
    assert (after.blank_left, after.blank_bottom) == (
        before.blank_bottom,
        before.blank_left,
    )
    assert (after.blank_right, after.blank_top) == (
        before.blank_top,
        before.blank_right,
    )
    move.revert(packer)
    assert packer.current_blocks()[name] == before


def test_rebase_rebuild_is_a_noop_on_values():
    """A full rebuild after many exact updates must not change anything."""
    rng = random.Random(7)
    blocks = _random_blocks(12, rng)
    pair = SequencePair.initial(list(blocks), rng)
    packer = IncrementalPacker(blocks, pair, rebase_interval=10_000)
    for _ in range(200):
        _random_move(12, rng).apply(packer)
    before = packer.pack_result()
    packer._rebuild()
    after = packer.pack_result()
    assert before.positions == after.positions
    assert (before.width, before.height) == (after.width, after.height)


def test_inside_mask_matches_canonical_evaluation():
    rng = random.Random(9)
    blocks = _random_blocks(10, rng)
    pair = SequencePair.initial(list(blocks), rng)
    packer = IncrementalPacker(blocks, pair)
    for _ in range(50):
        _random_move(10, rng).apply(packer)
    x, y = packer.coordinates()
    context = packer.context
    expected = (x + packer.widths <= 120 + 1e-9) & (y + packer.heights <= 90 + 1e-9)
    assert (packer.inside_mask(120, 90) == expected).all()
    assert context.names == packer.names


def test_mismatched_pair_rejected():
    rng = random.Random(1)
    blocks = _random_blocks(4, rng)
    bad = SequencePair(positive=("x", "y"), negative=("y", "x"))
    with pytest.raises(ValueError):
        IncrementalPacker(blocks, bad)
