"""Unit tests for sequence-pair packing with blank sharing."""

import random

import pytest

from repro.floorplan import Block, SequencePair, pack_sequence_pair
from tests.oracles.packing import PackingContext


def test_two_blocks_side_by_side_share_blanks():
    blocks = {
        "a": Block("a", width=40, height=20, blank_right=6),
        "b": Block("b", width=30, height=20, blank_left=4),
    }
    pair = SequencePair(positive=("a", "b"), negative=("a", "b"))
    result = pack_sequence_pair(pair, blocks)
    assert result.positions["a"] == (0.0, 0.0)
    # b abuts a sharing min(6, 4) = 4 of blank.
    assert result.positions["b"][0] == pytest.approx(36.0)
    assert result.width == pytest.approx(66.0)
    assert result.height == pytest.approx(20.0)


def test_two_blocks_stacked_share_vertical_blanks():
    blocks = {
        "a": Block("a", width=40, height=20, blank_top=5),
        "b": Block("b", width=40, height=25, blank_bottom=3),
    }
    pair = SequencePair(positive=("b", "a"), negative=("a", "b"))  # a below b
    result = pack_sequence_pair(pair, blocks)
    assert result.positions["a"][1] == 0.0
    assert result.positions["b"][1] == pytest.approx(17.0)
    assert result.height == pytest.approx(42.0)


def test_empty_packing():
    pair = SequencePair(positive=(), negative=())
    result = pack_sequence_pair(pair, {})
    assert result.width == 0.0 and result.height == 0.0


def test_context_matches_reference_on_random_inputs():
    rng = random.Random(5)
    blocks = {
        f"b{i}": Block(
            f"b{i}",
            width=rng.uniform(10, 50),
            height=rng.uniform(10, 50),
            blank_left=rng.uniform(0, 5),
            blank_right=rng.uniform(0, 5),
            blank_top=rng.uniform(0, 5),
            blank_bottom=rng.uniform(0, 5),
        )
        for i in range(12)
    }
    context = PackingContext(blocks)
    for _ in range(20):
        pair = SequencePair.initial(list(blocks), rng)
        reference = pack_sequence_pair(pair, blocks)
        fast = context.pack(pair)
        for name in blocks:
            assert fast.positions[name] == pytest.approx(reference.positions[name])
        assert fast.width == pytest.approx(reference.width)
        assert fast.height == pytest.approx(reference.height)


def test_packed_patterns_never_overlap():
    """Blank sharing must never make circuit patterns collide."""
    rng = random.Random(9)
    blocks = {
        f"b{i}": Block(
            f"b{i}",
            width=rng.uniform(20, 40),
            height=rng.uniform(20, 40),
            blank_left=rng.uniform(0, 8),
            blank_right=rng.uniform(0, 8),
            blank_top=rng.uniform(0, 8),
            blank_bottom=rng.uniform(0, 8),
        )
        for i in range(10)
    }
    for trial in range(10):
        pair = SequencePair.initial(list(blocks), random.Random(trial))
        result = pack_sequence_pair(pair, blocks)
        names = list(blocks)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = blocks[names[i]], blocks[names[j]]
                ax, ay = result.positions[a.name]
                bx, by = result.positions[b.name]
                # pattern boxes (footprint minus blanks)
                ax0, ax1 = ax + a.blank_left, ax + a.width - a.blank_right
                ay0, ay1 = ay + a.blank_bottom, ay + a.height - a.blank_top
                bx0, bx1 = bx + b.blank_left, bx + b.width - b.blank_right
                by0, by1 = by + b.blank_bottom, by + b.height - b.blank_top
                x_overlap = min(ax1, bx1) - max(ax0, bx0)
                y_overlap = min(ay1, by1) - max(ay0, by0)
                assert not (x_overlap > 1e-6 and y_overlap > 1e-6), (
                    f"patterns of {a.name} and {b.name} overlap"
                )
