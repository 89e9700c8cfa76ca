"""Unit tests for the sequence-pair representation."""

import random

import pytest

from repro.errors import ValidationError
from repro.floorplan import SequencePair
from tests.oracles.annealing import random_neighbor


def test_rejects_mismatched_sequences():
    with pytest.raises(ValidationError):
        SequencePair(positive=("a", "b"), negative=("a", "c"))
    with pytest.raises(ValidationError):
        SequencePair(positive=("a", "a"), negative=("a", "a"))


def test_initial_identity_and_random():
    names = ["a", "b", "c", "d"]
    identity = SequencePair.initial(names)
    assert identity.positive == tuple(names)
    randomized = SequencePair.initial(names, random.Random(3))
    assert sorted(randomized.positive) == sorted(names)
    assert sorted(randomized.negative) == sorted(names)


def test_relations():
    # Gamma+ = (a, b), Gamma- = (a, b): a left of b.
    pair = SequencePair(positive=("a", "b"), negative=("a", "b"))
    assert pair.is_left_of("a", "b")
    assert not pair.is_below("a", "b")
    # Gamma+ = (b, a), Gamma- = (a, b): a below b.
    pair2 = SequencePair(positive=("b", "a"), negative=("a", "b"))
    assert pair2.is_below("a", "b")
    assert not pair2.is_left_of("a", "b")


def test_moves_preserve_block_set():
    pair = SequencePair.initial(["a", "b", "c", "d"])
    swapped_pos = pair.swap_positive(0, 3)
    assert sorted(swapped_pos.positive) == sorted(pair.positive)
    assert swapped_pos.negative == pair.negative
    swapped_neg = pair.swap_negative(1, 2)
    assert swapped_neg.positive == pair.positive
    swapped_both = pair.swap_both("a", "d")
    assert swapped_both.positive.index("a") == pair.positive.index("d")
    assert swapped_both.negative.index("a") == pair.negative.index("d")


def test_random_neighbor_is_valid_pair():
    rng = random.Random(0)
    pair = SequencePair.initial(["a", "b", "c", "d", "e"], rng)
    for _ in range(50):
        pair = random_neighbor(pair, rng)
        assert sorted(pair.positive) == sorted(pair.negative)


def test_single_block_neighbor_is_identity():
    pair = SequencePair.initial(["only"])
    assert random_neighbor(pair, random.Random(0)) is pair
