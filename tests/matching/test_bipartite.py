"""Unit tests for the maximum-weight bipartite matching."""

import random

import networkx as nx
import pytest

from repro.matching import matching_weight, max_weight_matching
from tests.oracles import matching as oracle


def networkx_weight(weights):
    graph = nx.Graph()
    for (left, right), weight in weights.items():
        graph.add_edge(("L", left), ("R", right), weight=weight)
    matching = nx.max_weight_matching(graph)
    return sum(graph[a][b]["weight"] for a, b in matching)


def test_empty():
    assert max_weight_matching({}) == {}


def test_single_edge():
    weights = {("a", "r1"): 5.0}
    matching = max_weight_matching(weights)
    assert matching == {"a": "r1"}
    assert matching_weight(matching, weights) == 5.0


def test_prefers_total_weight_over_greedy_choice():
    weights = {
        ("a", "r1"): 10.0,
        ("a", "r2"): 9.0,
        ("b", "r1"): 9.0,
    }
    matching = max_weight_matching(weights)
    assert matching == {"a": "r2", "b": "r1"}
    assert matching_weight(matching, weights) == 18.0


def test_respects_missing_edges():
    weights = {("a", "r1"): 3.0, ("b", "r2"): 4.0}
    matching = max_weight_matching(weights)
    assert matching == {"a": "r1", "b": "r2"}


def test_each_side_used_at_most_once():
    weights = {
        ("a", "r1"): 5.0,
        ("b", "r1"): 6.0,
        ("c", "r1"): 7.0,
    }
    matching = max_weight_matching(weights)
    assert len(matching) == 1
    assert matching == {"c": "r1"}


def test_skips_non_improving_edges():
    weights = {("a", "r1"): 0.0, ("b", "r2"): -5.0, ("c", "r3"): 2.0}
    matching = max_weight_matching(weights)
    assert matching == {"c": "r3"}


@pytest.mark.parametrize("seed", range(8))
def test_matches_networkx_total_weight(seed):
    rng = random.Random(seed)
    weights = {}
    for left in range(rng.randint(1, 7)):
        for right in range(rng.randint(1, 7)):
            if rng.random() < 0.6:
                weights[(f"c{left}", f"r{right}")] = rng.uniform(0.5, 10.0)
    if not weights:
        return
    matching = max_weight_matching(weights)
    assert matching_weight(matching, weights) == pytest.approx(
        networkx_weight(weights), abs=1e-6
    )
    # structural sanity: one-to-one
    assert len(set(matching.values())) == len(matching)


def _random_weights(rng, negative=False):
    weights = {}
    for left in range(rng.randint(1, 9)):
        for right in range(rng.randint(1, 9)):
            if rng.random() < 0.55:
                low = -3.0 if negative else 0.5
                weights[(f"c{left}", f"r{right}")] = rng.uniform(low, 10.0)
    return weights


@pytest.mark.parametrize("seed", range(12))
def test_numpy_solver_identical_to_pure_python(seed):
    """The vectorized Hungarian matcher is bit-identical to the reference."""
    rng = random.Random(seed)
    weights = _random_weights(rng, negative=(seed % 3 == 0))
    if not weights:
        return
    assert max_weight_matching(weights) == oracle.max_weight_matching(
        weights, oracle.hungarian_max_scalar
    )


@pytest.mark.parametrize("seed", range(12))
def test_scipy_fast_path_equal_weight(seed):
    """linear_sum_assignment may break ties differently but never loses weight."""
    rng = random.Random(100 + seed)
    weights = _random_weights(rng)
    if not weights:
        return
    reference = max_weight_matching(weights)
    fast = oracle.max_weight_matching(weights, oracle.assignment_scipy)
    assert matching_weight(fast, weights) == pytest.approx(
        matching_weight(reference, weights), abs=1e-9
    )
    # Structural sanity on the fast path: one-to-one, only real edges.
    assert len(set(fast.values())) == len(fast)
    assert all(pair in weights for pair in fast.items())
