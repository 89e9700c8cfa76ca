"""Property tests: the vectorized kernels match the scalar reference code.

The acceptance bar for the kernel layer is agreement to 1e-9 with the
loop-based implementations on randomized instances, plus exactness of the
incremental :class:`~repro.core.kernels.RunningTimes` evaluator under long
select/deselect/swap sequences.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import RunningTimes, kernels_of
from repro.core.profits import compute_profits
from repro.model import Character, OSPInstance, Region, StencilSpec
from repro.model.writing_time import region_writing_times
from tests.oracles.kernels import compute_profits_scalar, region_writing_times_scalar

ATOL = 1e-9


@st.composite
def instances(draw):
    num_regions = draw(st.integers(min_value=1, max_value=5))
    num_chars = draw(st.integers(min_value=1, max_value=15))
    characters = []
    for i in range(num_chars):
        repeats = tuple(
            float(draw(st.integers(min_value=0, max_value=50)))
            for _ in range(num_regions)
        )
        characters.append(
            Character(
                name=f"c{i}",
                width=draw(st.floats(min_value=10, max_value=60)),
                height=20.0,
                blank_left=draw(st.floats(min_value=0, max_value=4)),
                blank_right=draw(st.floats(min_value=0, max_value=4)),
                vsb_shots=float(draw(st.integers(min_value=0, max_value=40))),
                cp_shots=float(draw(st.integers(min_value=0, max_value=3))),
                repeats=repeats,
            )
        )
    return OSPInstance(
        name="kernel-prop",
        characters=tuple(characters),
        regions=tuple(Region(f"w{c}", c) for c in range(num_regions)),
        stencil=StencilSpec(width=500, height=500),
        kind="1D",
    )


@settings(max_examples=60, deadline=None)
@given(instance=instances(), data=st.data())
def test_vectorized_profits_match_scalar(instance, data):
    assert compute_profits(instance) == pytest.approx(
        compute_profits_scalar(instance), abs=ATOL
    )
    times = [
        data.draw(st.floats(min_value=0, max_value=1e4))
        for _ in range(instance.num_regions)
    ]
    assert compute_profits(instance, times) == pytest.approx(
        compute_profits_scalar(instance, times), abs=ATOL
    )


@settings(max_examples=60, deadline=None)
@given(instance=instances(), data=st.data())
def test_vectorized_writing_times_match_scalar(instance, data):
    selected = [
        ch.name
        for ch in instance.characters
        if data.draw(st.booleans())
    ]
    assert region_writing_times(instance, selected) == pytest.approx(
        region_writing_times_scalar(instance, selected), abs=ATOL
    )
    # Unknown names are ignored by both implementations.
    assert region_writing_times(instance, selected + ["no-such-char"]) == pytest.approx(
        region_writing_times_scalar(instance, selected), abs=ATOL
    )


@settings(max_examples=40, deadline=None)
@given(instance=instances(), seed=st.integers(min_value=0, max_value=2**16))
def test_running_times_track_recomputation(instance, seed):
    rng = random.Random(seed)
    kernels = kernels_of(instance)
    running = RunningTimes(kernels)
    selected: set[int] = set()
    for _ in range(50):
        i = rng.randrange(instance.num_characters)
        if i in selected:
            running.deselect(i)
            selected.discard(i)
        else:
            running.select(i)
            selected.add(i)
        names = [instance.characters[j].name for j in selected]
        assert running.as_list() == pytest.approx(
            region_writing_times_scalar(instance, names), abs=ATOL
        )
        assert running.total() == pytest.approx(
            max(region_writing_times_scalar(instance, names)), abs=ATOL
        )


def test_trial_evaluations_do_not_mutate():
    rng = random.Random(7)
    from repro.workloads import generate_1d_instance

    instance = generate_1d_instance(num_characters=30, num_regions=4, seed=3)
    kernels = kernels_of(instance)
    running = RunningTimes(kernels, [0, 1, 2])
    before = running.as_list()
    trial_sel = running.trial_select(5)
    trial_swap = running.trial_swap(0, 5)
    assert running.as_list() == before
    # Trial results equal the mutate-then-inspect results.
    running.select(5)
    assert running.total() == pytest.approx(trial_sel, abs=ATOL)
    running.deselect(5)
    running.swap(0, 5)
    assert running.total() == pytest.approx(trial_swap, abs=ATOL)


def test_kernels_are_cached_per_instance():
    from repro.workloads import generate_1d_instance

    instance = generate_1d_instance(num_characters=10, num_regions=2, seed=1)
    assert kernels_of(instance) is kernels_of(instance)
    assert instance.reduction_matrix_array() is instance.reduction_matrix_array()
    with pytest.raises(ValueError):
        instance.reduction_matrix_array()[0, 0] = 1.0  # read-only view


def test_instance_arrays_match_scalar_accessors():
    from repro.workloads import generate_1d_instance

    instance = generate_1d_instance(num_characters=25, num_regions=3, seed=9)
    np.testing.assert_allclose(
        instance.reduction_matrix_array(),
        [[ch.reduction_in(c) for c in range(instance.num_regions)]
         for ch in instance.characters],
        atol=ATOL,
    )
    np.testing.assert_allclose(
        instance.vsb_times_array(),
        [sum(ch.vsb_time_in(c) for ch in instance.characters)
         for c in range(instance.num_regions)],
        atol=ATOL,
    )
