"""Property-based tests for sequence-pair packing and plan geometry."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import Block, SequencePair, pack_sequence_pair
from tests.oracles.packing import PackingContext


@st.composite
def block_sets(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    blocks = {}
    for i in range(n):
        width = draw(st.floats(min_value=10, max_value=50))
        height = draw(st.floats(min_value=10, max_value=50))
        blocks[f"b{i}"] = Block(
            name=f"b{i}",
            width=width,
            height=height,
            blank_left=draw(st.floats(min_value=0, max_value=4)),
            blank_right=draw(st.floats(min_value=0, max_value=4)),
            blank_top=draw(st.floats(min_value=0, max_value=4)),
            blank_bottom=draw(st.floats(min_value=0, max_value=4)),
        )
    return blocks


@given(blocks=block_sets(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_patterns_never_overlap(blocks, seed):
    pair = SequencePair.initial(list(blocks), random.Random(seed))
    result = pack_sequence_pair(pair, blocks)
    names = list(blocks)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = blocks[names[i]], blocks[names[j]]
            ax, ay = result.positions[a.name]
            bx, by = result.positions[b.name]
            ax0, ax1 = ax + a.blank_left, ax + a.width - a.blank_right
            ay0, ay1 = ay + a.blank_bottom, ay + a.height - a.blank_top
            bx0, bx1 = bx + b.blank_left, bx + b.width - b.blank_right
            by0, by1 = by + b.blank_bottom, by + b.height - b.blank_top
            x_overlap = min(ax1, bx1) - max(ax0, bx0)
            y_overlap = min(ay1, by1) - max(ay0, by0)
            assert not (x_overlap > 1e-6 and y_overlap > 1e-6)


@given(blocks=block_sets(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_positions_nonnegative_and_inside_bounding_box(blocks, seed):
    pair = SequencePair.initial(list(blocks), random.Random(seed))
    result = pack_sequence_pair(pair, blocks)
    for name, (x, y) in result.positions.items():
        block = blocks[name]
        assert x >= -1e-9 and y >= -1e-9
        assert x + block.width <= result.width + 1e-6
        assert y + block.height <= result.height + 1e-6


@given(blocks=block_sets(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_vectorized_context_matches_reference(blocks, seed):
    pair = SequencePair.initial(list(blocks), random.Random(seed))
    reference = pack_sequence_pair(pair, blocks)
    fast = PackingContext(blocks).pack(pair)
    for name in blocks:
        assert abs(fast.positions[name][0] - reference.positions[name][0]) < 1e-9
        assert abs(fast.positions[name][1] - reference.positions[name][1]) < 1e-9
    assert abs(fast.width - reference.width) < 1e-9
    assert abs(fast.height - reference.height) < 1e-9


@given(blocks=block_sets())
@settings(max_examples=30, deadline=None)
def test_bounding_box_no_smaller_than_largest_block(blocks):
    pair = SequencePair.initial(list(blocks))
    result = pack_sequence_pair(pair, blocks)
    assert result.width >= max(b.width for b in blocks.values()) - 1e-9
    assert result.height >= max(b.height for b in blocks.values()) - 1e-9
