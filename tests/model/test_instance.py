"""Unit tests for :mod:`repro.model.instance`."""

import pickle

import pytest

from repro.errors import ValidationError
from repro.model import Character, OSPInstance, Region, StencilSpec


def make_instance(**overrides):
    characters = overrides.pop(
        "characters",
        (
            Character(name="a", width=30, height=10, vsb_shots=5, repeats=(2.0, 1.0)),
            Character(name="b", width=40, height=10, vsb_shots=8, repeats=(0.0, 3.0)),
        ),
    )
    defaults = dict(
        name="inst",
        characters=characters,
        regions=(Region("w1", 0), Region("w2", 1)),
        stencil=StencilSpec(width=100, height=40),
        kind="1D",
    )
    defaults.update(overrides)
    return OSPInstance(**defaults)


class TestValidation:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            make_instance(kind="3D")

    def test_rejects_duplicate_character_names(self):
        chars = (
            Character(name="x", width=30, height=10, repeats=(1.0, 1.0)),
            Character(name="x", width=20, height=10, repeats=(1.0, 1.0)),
        )
        with pytest.raises(ValidationError):
            make_instance(characters=chars)

    def test_rejects_bad_region_indices(self):
        with pytest.raises(ValidationError):
            make_instance(regions=(Region("w1", 0), Region("w2", 2)))

    def test_rejects_mismatched_repeat_length(self):
        chars = (Character(name="a", width=30, height=10, repeats=(1.0,)),)
        with pytest.raises(ValidationError):
            make_instance(characters=chars)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_instance(characters=())


class TestAccessors:
    def test_counts(self):
        inst = make_instance()
        assert inst.num_characters == 2
        assert inst.num_regions == 2

    def test_character_lookup(self):
        inst = make_instance()
        assert inst.character("b").width == 40
        assert inst.character_index("a") == 0
        with pytest.raises(KeyError):
            inst.character("nope")

    def test_vsb_times_and_reductions(self):
        inst = make_instance()
        # region 0: a contributes 2*5=10, b contributes 0 -> 10
        assert inst.vsb_time(0) == pytest.approx(10.0)
        # region 1: a contributes 1*5=5, b contributes 3*8=24 -> 29
        assert inst.vsb_time(1) == pytest.approx(29.0)
        assert inst.reduction(0, 0) == pytest.approx(2 * 4)
        matrix = inst.reduction_matrix()
        assert matrix[1][1] == pytest.approx(3 * 7)

    def test_row_count_uses_uniform_height(self):
        inst = make_instance()
        assert inst.uniform_row_height() == 10
        assert inst.row_count() == 4

    def test_subset(self):
        inst = make_instance()
        sub = inst.subset(["b"])
        assert sub.num_characters == 1
        assert sub.characters[0].name == "b"


class TestSerializationAndFactories:
    def test_round_trip(self):
        inst = make_instance()
        again = OSPInstance.from_dict(inst.to_dict())
        assert again.name == inst.name
        assert again.num_characters == inst.num_characters
        assert again.vsb_times() == inst.vsb_times()

    def test_derived_data_stays_out_of_pickles(self):
        from repro.core.kernels import kernels_of
        from repro.workloads import generate_1d_instance

        inst = generate_1d_instance(num_characters=40, num_regions=3, seed=4)
        cold = pickle.dumps(inst)
        kernels_of(inst)
        inst.character_index(inst.characters[-1].name)
        assert len(pickle.dumps(inst)) == len(cold)
        again = pickle.loads(pickle.dumps(inst))
        assert again == inst and again.metadata == inst.metadata
        assert not again.reduction_matrix_array().flags.writeable
        assert again.to_dict() == inst.to_dict()

    def test_single_region_factory_fills_repeats(self):
        chars = [Character(name="a", width=30, height=10, vsb_shots=5)]
        inst = OSPInstance.single_region("s", chars, StencilSpec(width=50, height=20))
        assert inst.num_regions == 1
        assert inst.characters[0].repeats == (1.0,)

    def test_single_region_factory_rejects_multi_region_characters(self):
        chars = [Character(name="a", width=30, height=10, repeats=(1.0, 2.0))]
        with pytest.raises(ValidationError):
            OSPInstance.single_region("s", chars, StencilSpec(width=50, height=20))
