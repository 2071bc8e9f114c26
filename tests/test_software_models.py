"""Tests for the Table 1 software fault models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.software_models import (
    INT16_SCALE,
    TABLE1,
    PinnedMagnitude,
    all_model_names,
    model_for_ff,
    write_record,
)
from repro.tensor.bits import float32_to_bits


@pytest.fixture
def tensor(rng):
    return rng.normal(size=(2, 24, 4, 4)).astype(np.float32)


GROUPS = range(1, 11)


def global_ff(group, feedback=True):
    return FFDescriptor("global_control", group=group, has_feedback=feedback)


class TestRecordConsistency:
    @pytest.mark.parametrize("group", GROUPS)
    def test_record_matches_tensor_change(self, group, tensor):
        rng = np.random.default_rng(group)
        model = model_for_ff(global_ff(group))
        record = model.apply(tensor, rng, global_ff(group))
        _, faulty = write_record(tensor, record)
        flat_faulty = faulty.reshape(-1)
        flat_orig = tensor.reshape(-1)
        # Everything outside recorded positions is untouched.
        mask = np.ones(tensor.size, dtype=bool)
        mask[record.positions] = False
        assert np.array_equal(flat_faulty[mask], flat_orig[mask])
        # Recorded faulty values match the tensor (NaN-safe).
        got = flat_faulty[record.positions]
        assert np.array_equal(got, record.faulty_values, equal_nan=True)

    @pytest.mark.parametrize("group", GROUPS)
    def test_original_tensor_not_mutated(self, group, tensor):
        rng = np.random.default_rng(group)
        copy = tensor.copy()
        model_for_ff(global_ff(group)).apply(tensor, rng, global_ff(group))
        assert np.array_equal(tensor, copy)

    def test_non_contiguous_input_handled(self, rng):
        """Regression test: conv weight gradients arrive as non-contiguous
        views (dw.T.reshape); faults must still be written."""
        base = rng.normal(size=(72, 16)).astype(np.float32)
        tensor = base.T.reshape(16, 8, 3, 3)
        assert not tensor.flags["C_CONTIGUOUS"]
        model = model_for_ff(global_ff(1))
        record = model.apply(tensor, np.random.default_rng(3), global_ff(1))
        _, faulty = write_record(tensor, record)
        got = faulty.reshape(-1)[record.positions]
        assert np.array_equal(got, record.faulty_values, equal_nan=True)


class TestGroupSemantics:
    def test_group1_random_dynamic_range(self, tensor):
        hit_large = False
        for seed in range(20):
            record = model_for_ff(global_ff(1)).apply(
                tensor, np.random.default_rng(seed), global_ff(1)
            )
            if record.max_abs_faulty() > 1e20:
                hit_large = True
        assert hit_large  # random patterns span the dynamic range

    def test_group2_zeros(self, tensor):
        record = model_for_ff(global_ff(2)).apply(
            tensor, np.random.default_rng(1), global_ff(2)
        )
        assert np.all(record.faulty_values == 0.0)
        assert record.num_faulty >= 16

    def test_group3_single_lane(self, tensor):
        record = model_for_ff(global_ff(3)).apply(
            tensor, np.random.default_rng(2), global_ff(3)
        )
        # At most one element per cycle: n_cycles bounds the count.
        assert record.num_faulty <= record.n_cycles

    def test_group4_moves_block(self, tensor):
        record = model_for_ff(global_ff(4)).apply(
            tensor, np.random.default_rng(3), global_ff(4)
        )
        _, faulty = write_record(tensor, record)
        # Holes (zeros) plus destinations: record covers both.
        assert record.num_faulty >= 32
        # The intended locations were never written: zeros.
        half = record.num_faulty // 2
        holes = record.positions[:half]
        assert np.all(faulty.reshape(-1)[holes] == 0.0)

    def test_group5_values_from_same_tensor(self, tensor):
        record = model_for_ff(global_ff(5)).apply(
            tensor, np.random.default_rng(4), global_ff(5)
        )
        values = set(tensor.reshape(-1).tolist())
        assert all(float(v) in values for v in record.faulty_values)

    def test_group7_attenuates_with_fan_in(self, tensor):
        record = model_for_ff(global_ff(7)).apply(
            tensor, np.random.default_rng(5), global_ff(7, feedback=False),
            fan_in=128,
        )
        orig = record.original_values
        got = record.faulty_values
        ratios = got[orig != 0] / orig[orig != 0]
        assert np.all(ratios >= 0.0)
        assert np.all(ratios <= 1.0 + 1e-6)

    def test_group7_without_fan_in_zeroes(self, tensor):
        record = model_for_ff(global_ff(7)).apply(
            tensor, np.random.default_rng(6), global_ff(7), fan_in=None
        )
        assert np.all(record.faulty_values == 0.0)

    def test_group9_in_distribution(self, tensor):
        record = model_for_ff(global_ff(9)).apply(
            tensor, np.random.default_rng(7), global_ff(9)
        )
        assert record.max_abs_faulty() <= np.abs(tensor).max() + 1e-6


class TestDatapathAndLocal:
    def test_datapath_single_element_bit_flip(self, tensor):
        ff = FFDescriptor("datapath", bit=30)
        record = model_for_ff(ff).apply(tensor, np.random.default_rng(1), ff)
        if record.num_faulty:  # lane may be masked
            assert record.num_faulty == 1
            orig_bits = float32_to_bits(record.original_values)
            new_bits = float32_to_bits(record.faulty_values)
            assert (orig_bits ^ new_bits) == np.uint32(1 << 30)

    def test_datapath_lane_masking(self):
        """A lane index beyond the tensor's channels produces no faulty
        elements — hardware masking of the bit flip."""
        tensor = np.ones((1, 4, 2, 2), dtype=np.float32)  # 4 channels < 16 lanes
        masked = 0
        for seed in range(40):
            ff = FFDescriptor("datapath", bit=5)
            record = model_for_ff(ff).apply(tensor, np.random.default_rng(seed), ff)
            if record.num_faulty == 0:
                masked += 1
        assert masked > 0

    def test_local_control_random_value(self, tensor):
        ff = FFDescriptor("local_control", has_feedback=True)
        record = model_for_ff(ff).apply(tensor, np.random.default_rng(3), ff)
        assert record.num_faulty <= record.n_cycles


class TestDispatch:
    def test_model_for_ff(self):
        assert model_for_ff(FFDescriptor("datapath", bit=1)) is TABLE1["datapath"]
        assert model_for_ff(FFDescriptor("local_control")) is TABLE1["local_control"]
        assert model_for_ff(global_ff(2)) is TABLE1["group2"]
        with pytest.raises(ValueError):
            model_for_ff(FFDescriptor("global_control", group=11))
        with pytest.raises(ValueError):
            model_for_ff(FFDescriptor("bogus"))

    def test_all_model_names(self):
        names = all_model_names()
        assert "datapath" in names and "group10" in names
        assert len(names) == 12


class TestDeterminism:
    @given(st.integers(0, 1000), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_fault(self, seed, group):
        rng_data = np.random.default_rng(99)
        tensor = rng_data.normal(size=(1, 20, 3, 3)).astype(np.float32)
        model = model_for_ff(global_ff(group))
        r1 = model.apply(tensor, np.random.default_rng(seed), global_ff(group))
        _, f1 = write_record(tensor, r1)
        r2 = model.apply(tensor, np.random.default_rng(seed), global_ff(group))
        _, f2 = write_record(tensor, r2)
        assert np.array_equal(f1, f2, equal_nan=True)
        assert np.array_equal(r1.positions, r2.positions)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_positions_always_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5))))
        tensor = rng.normal(size=shape).astype(np.float32)
        group = int(rng.integers(1, 11))
        model = model_for_ff(global_ff(group))
        record = model.apply(tensor, rng, global_ff(group))
        if record.num_faulty:
            assert record.positions.min() >= 0
            assert record.positions.max() < tensor.size


class TestPinnedMagnitude:
    def test_writes_count_elements_at_plus_minus_magnitude(self, tensor):
        record = PinnedMagnitude(1e12, elements=40).apply(
            tensor, np.random.default_rng(3), global_ff(1))
        _, faulty = write_record(tensor, record)
        changed = np.flatnonzero(faulty.reshape(-1) != tensor.reshape(-1))
        assert record.model == "pinned"
        assert record.num_faulty == changed.size == 40
        assert np.array_equal(np.sort(record.positions), changed)
        assert set(np.abs(record.faulty_values).tolist()) == {np.float32(1e12)}
        assert len(set(np.sign(record.faulty_values).tolist())) == 2

    def test_coherent_writes_one_sign(self, tensor):
        record = PinnedMagnitude(1e6, elements=40, coherent=True).apply(
            tensor, np.random.default_rng(3))
        _, faulty = write_record(tensor, record)
        assert set(faulty.reshape(-1)[record.positions].tolist()) == {1e6}

    def test_whole_tensor_draws_no_positions(self, tensor):
        """Covering every element, the model draws only the signs: the
        generator ends where a sign draw alone leaves it."""
        rng, signs_only = np.random.default_rng(5), np.random.default_rng(5)
        record = PinnedMagnitude(100.0, elements=tensor.size + 1).apply(
            tensor, rng)
        _, faulty = write_record(tensor, record)
        signs = signs_only.choice([-1.0, 1.0], size=tensor.size)
        assert np.array_equal(faulty, (signs * 100.0).astype(np.float32)
                              .reshape(tensor.shape))
        assert np.array_equal(record.positions, np.arange(tensor.size))
        assert rng.random() == signs_only.random()


class TestPrecisionConfigFault:
    def test_small_values_quantized(self, rng):
        """Small activations pass through the int16 path distorted but
        finite (quantized to the fixed-point grid)."""
        tensor = rng.normal(size=(1, 16, 4, 4)).astype(np.float32) * 0.01
        model = TABLE1["precision_config"]
        record = model.apply(
            tensor, np.random.default_rng(1),
            FFDescriptor("global_control", group=1, has_feedback=True),
        )
        assert record.num_faulty >= 16
        assert np.all(np.isfinite(record.faulty_values))
        # Quantization grid: multiples of SCALE * 1 / SCALE = 1... values
        # are SCALE * int(x * SCALE) -> multiples of SCALE.
        assert np.all(record.faulty_values % 1.0 == 0)

    def test_large_values_hit_the_rails(self, rng):
        """Pre-scaled large values saturate at +-32767 and the FP32
        rescale amplifies them — the overflow path of Sec. 4.2.1."""
        tensor = (rng.normal(size=(1, 16, 4, 4)) * 1e4).astype(np.float32)
        model = TABLE1["precision_config"]
        record = model.apply(
            tensor, np.random.default_rng(2),
            FFDescriptor("global_control", group=1, has_feedback=True),
        )
        rail = 32767.0 * INT16_SCALE
        assert np.abs(record.faulty_values).max() == pytest.approx(rail, rel=1e-4)


class TestConservationProperties:
    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_group4_conserves_moved_values(self, seed):
        """Group 4 moves values to wrong addresses: every non-zero faulty
        value written somewhere was an original value somewhere else (the
        data is displaced, not fabricated)."""
        rng_data = np.random.default_rng(7)
        tensor = rng_data.normal(size=(1, 20, 3, 3)).astype(np.float32) + 5.0
        record = model_for_ff(global_ff(4)).apply(
            tensor, np.random.default_rng(seed), global_ff(4)
        )
        originals = set(tensor.reshape(-1).tolist())
        for value in record.faulty_values:
            v = float(value)
            assert v == 0.0 or v in originals

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_group2_faulty_count_matches_cycle_geometry(self, seed):
        """Group 2's zeroed-element count is always a whole number of
        lane bursts (full cycles), clipped at the schedule end."""
        rng_data = np.random.default_rng(11)
        tensor = rng_data.normal(size=(2, 16, 3, 3)).astype(np.float32)
        record = model_for_ff(global_ff(2)).apply(
            tensor, np.random.default_rng(seed), global_ff(2)
        )
        # 16 channels = exactly one full lane group per cycle.
        assert record.num_faulty % 16 == 0
        assert record.num_faulty <= 16 * record.n_cycles
