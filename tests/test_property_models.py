"""Property-based tests for the bit-flip primitives and Table 1 models.

Randomized (but seeded, so fully reproducible) checks of the algebraic
properties the fault models rely on:

* a bit flip is an involution, and its software-visible magnitude is
  exactly what the flipped IEEE-754 bit position dictates (sign flips
  negate, exponent-bit flips scale by ``2**(2**(bit-23))``, mantissa-bit
  flips stay within a factor of two);
* every Table 1 fault model (and the pinned-magnitude model of a
  directed fault) perturbs only the elements it records,
  preserves shape/dtype, and keeps its faulty values inside the
  contract of its group (zeros for group 2, attenuation for group 7,
  in-range float32 for the random-value groups).

Plain seeded ``numpy.random.Generator`` draws — no extra dependencies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.dataflow import to_canonical
from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.software_models import (
    TABLE1,
    FaultRecord,
    PinnedMagnitude,
    all_model_names,
    model_for_ff,
    write_record,
)
from repro.tensor.bits import (
    BFLOAT16_BITS,
    FLOAT32_BITS,
    bits_to_float32,
    flip_bfloat16_bit,
    flip_float32_bit,
    float32_to_bits,
    random_float32_pattern,
)

NUM_TRIALS = 200


def random_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Arbitrary float32 bit patterns, including subnormals/INFs/NaNs."""
    return random_float32_pattern(rng, size)


def normal_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Strictly normal (non-zero, non-subnormal, finite) float32 values."""
    values = random_float32_pattern(rng, size * 4)
    exponent = (float32_to_bits(values) >> np.uint32(23)) & np.uint32(0xFF)
    normal = values[(exponent != 0) & (exponent != 255)]
    assert normal.size >= size, "seeded draw produced too few normals"
    return normal[:size]


# ----------------------------------------------------------------------
# float32 bit flips
# ----------------------------------------------------------------------
class TestFloat32Flip:
    @pytest.mark.parametrize("bit", range(FLOAT32_BITS))
    def test_flip_is_an_involution(self, bit):
        rng = np.random.default_rng(1000 + bit)
        x = random_values(rng, NUM_TRIALS)
        twice = flip_float32_bit(flip_float32_bit(x, bit), bit)
        # Bitwise identity, so it also holds through NaN payloads.
        np.testing.assert_array_equal(float32_to_bits(twice),
                                      float32_to_bits(x))

    @pytest.mark.parametrize("bit", range(FLOAT32_BITS))
    def test_flip_changes_exactly_the_requested_bit(self, bit):
        rng = np.random.default_rng(2000 + bit)
        x = random_values(rng, NUM_TRIALS)
        xor = float32_to_bits(flip_float32_bit(x, bit)) ^ float32_to_bits(x)
        assert np.all(xor == np.uint32(1 << bit))

    def test_sign_flip_negates(self):
        rng = np.random.default_rng(3)
        x = random_values(rng, NUM_TRIALS)
        x = x[~np.isnan(x)]
        np.testing.assert_array_equal(flip_float32_bit(x, 31), -x)

    @pytest.mark.parametrize("bit", range(23, 31))
    def test_exponent_flip_magnitude_is_a_power_of_two(self, bit):
        """Flipping exponent bit b scales a normal value by exactly
        ``2**(+-2**(b-23))`` whenever the result is also normal."""
        rng = np.random.default_rng(4000 + bit)
        x = normal_values(rng, NUM_TRIALS)
        flipped = flip_float32_bit(x, bit)
        exponent = (float32_to_bits(flipped) >> np.uint32(23)) & np.uint32(0xFF)
        still_normal = (exponent != 0) & (exponent != 255)
        x, flipped = x[still_normal], flipped[still_normal]
        assert x.size > 0
        was_set = (float32_to_bits(x) >> np.uint32(bit)) & np.uint32(1)
        step = 2.0 ** (2 ** (bit - 23))
        expected = np.where(was_set == 1, 1.0 / step, step)
        # float32 values are exact in float64, and the mantissas cancel,
        # so the ratio is the exact power of two.
        ratio = flipped.astype(np.float64) / x.astype(np.float64)
        np.testing.assert_array_equal(ratio, expected)

    @pytest.mark.parametrize("bit", range(0, 23))
    def test_mantissa_flip_stays_within_a_factor_of_two(self, bit):
        rng = np.random.default_rng(5000 + bit)
        x = normal_values(rng, NUM_TRIALS)
        flipped = flip_float32_bit(x, bit)
        # Sign and exponent fields are untouched...
        np.testing.assert_array_equal(
            float32_to_bits(x) >> np.uint32(23),
            float32_to_bits(flipped) >> np.uint32(23))
        # ...so the value moves by strictly less than a factor of two.
        ratio = np.abs(flipped.astype(np.float64) / x.astype(np.float64))
        assert np.all((ratio > 0.5) & (ratio < 2.0))

    @pytest.mark.parametrize("bit", [-1, 32, 100])
    def test_out_of_range_bit_rejected(self, bit):
        with pytest.raises(ValueError):
            flip_float32_bit(np.float32(1.0), bit)


# ----------------------------------------------------------------------
# bfloat16 bit flips
# ----------------------------------------------------------------------
class TestBfloat16Flip:
    @staticmethod
    def truncate(x: np.ndarray) -> np.ndarray:
        """The value a bfloat16 datapath register actually holds."""
        return bits_to_float32(float32_to_bits(x) & np.uint32(0xFFFF0000))

    @pytest.mark.parametrize("bit", range(BFLOAT16_BITS))
    def test_flip_is_an_involution_on_the_truncated_value(self, bit):
        """The register truncates first, so flipping twice recovers the
        *truncated* value bit-exactly (not the full-precision input)."""
        rng = np.random.default_rng(6000 + bit)
        x = random_values(rng, NUM_TRIALS)
        twice = flip_bfloat16_bit(flip_bfloat16_bit(x, bit), bit)
        np.testing.assert_array_equal(float32_to_bits(twice),
                                      float32_to_bits(self.truncate(x)))

    @pytest.mark.parametrize("bit", range(BFLOAT16_BITS))
    def test_flip_changes_exactly_the_requested_encoding_bit(self, bit):
        rng = np.random.default_rng(7000 + bit)
        x = self.truncate(random_values(rng, NUM_TRIALS))
        xor = float32_to_bits(flip_bfloat16_bit(x, bit)) ^ float32_to_bits(x)
        # bfloat16 bit b lives at float32 bit b+16; low 16 bits stay zero.
        assert np.all(xor == np.uint32(1 << (bit + 16)))

    @pytest.mark.parametrize("bit", [-1, 16, 31])
    def test_out_of_range_bit_rejected(self, bit):
        with pytest.raises(ValueError):
            flip_bfloat16_bit(np.float32(1.0), bit)


# ----------------------------------------------------------------------
# Random-pattern sampling (Table 1 groups 1/3 value source)
# ----------------------------------------------------------------------
class TestRandomPattern:
    def test_dtype_shape_and_determinism(self):
        a = random_float32_pattern(np.random.default_rng(9), (32, 4))
        b = random_float32_pattern(np.random.default_rng(9), (32, 4))
        assert a.dtype == np.float32 and a.shape == (32, 4)
        np.testing.assert_array_equal(float32_to_bits(a), float32_to_bits(b))

    def test_patterns_span_the_dynamic_range(self):
        """Random encodings must reach both huge and tiny magnitudes
        ("values that can span the entire data precision dynamic range")."""
        values = random_float32_pattern(np.random.default_rng(10), 4096)
        finite = values[np.isfinite(values)]
        magnitude = np.abs(finite[finite != 0.0])
        assert magnitude.max() > 1e30
        assert magnitude.min() < 1e-30


# ----------------------------------------------------------------------
# Table 1 fault models
# ----------------------------------------------------------------------
def descriptor_for(name: str) -> FFDescriptor:
    if name == "datapath":
        return FFDescriptor("datapath", bit=30)
    if name == "local_control":
        return FFDescriptor("local_control", has_feedback=True)
    if name in ("precision_config", "pinned"):
        # No sampled FF selects either model; a feedback config FF stands in.
        return FFDescriptor("global_control", group=1, has_feedback=True)
    return FFDescriptor("global_control", group=int(name.removeprefix("group")),
                        has_feedback=True)


def model_named(name: str):
    if name == "pinned":
        return PinnedMagnitude(1e6)
    if name == "precision_config":
        return TABLE1[name]
    return model_for_ff(descriptor_for(name))


SHAPES = [(4, 8, 6, 6), (16, 32), (128,)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", all_model_names() + ["precision_config", "pinned"])
class TestTable1ModelProperties:
    def _apply(self, name, shape, seed=0):
        rng = np.random.default_rng(seed)
        original = rng.standard_normal(shape).astype(np.float32)
        model = model_named(name)
        record = model.apply(original, rng, descriptor_for(name))
        _, faulty = write_record(original, record)
        return original, faulty, record

    def test_shape_and_dtype_preserved(self, name, shape):
        original, faulty, record = self._apply(name, shape)
        assert faulty.shape == original.shape
        assert faulty.dtype == np.float32
        assert isinstance(record, FaultRecord)
        assert record.model == name

    def test_record_positions_are_valid_indices(self, name, shape):
        original, _, record = self._apply(name, shape)
        assert record.positions.size == record.num_faulty
        if record.num_faulty:
            assert record.positions.min() >= 0
            assert record.positions.max() < original.size

    def test_only_recorded_positions_change(self, name, shape):
        """The model's write set is exactly its record: every element
        outside ``record.positions`` is bit-identical to the input."""
        original, faulty, record = self._apply(name, shape)
        bits_before = float32_to_bits(to_canonical(original)).reshape(-1)
        bits_after = float32_to_bits(to_canonical(faulty)).reshape(-1)
        untouched = np.ones(original.size, dtype=bool)
        untouched[record.positions] = False
        np.testing.assert_array_equal(bits_after[untouched],
                                      bits_before[untouched])
        # And the recorded faulty values match what landed in the tensor.
        np.testing.assert_array_equal(
            bits_after[record.positions],
            float32_to_bits(record.faulty_values))

    def test_faulty_values_are_float32(self, name, shape):
        _, _, record = self._apply(name, shape)
        assert record.faulty_values.dtype == np.float32
        assert record.original_values.dtype == np.float32


class TestModelContracts:
    """Per-group value contracts beyond the generic write-set property."""

    def test_datapath_flip_is_revertible_bit_exact(self):
        """One datapath fault = one element with one known bit flipped;
        flipping it back restores the original bit pattern."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            original = rng.standard_normal((8, 8)).astype(np.float32)
            ff = FFDescriptor("datapath", bit=int(rng.integers(0, 32)))
            record = model_for_ff(ff).apply(original, rng, ff)
            if record.num_faulty == 0:
                continue
            assert record.num_faulty == 1
            reverted = flip_float32_bit(record.faulty_values, ff.bit)
            np.testing.assert_array_equal(
                float32_to_bits(reverted),
                float32_to_bits(record.original_values))

    def test_group2_outputs_are_zero(self):
        rng = np.random.default_rng(21)
        original = rng.standard_normal((4, 8, 6, 6)).astype(np.float32)
        ff = FFDescriptor("global_control", group=2, has_feedback=True)
        record = model_for_ff(ff).apply(original, rng, ff)
        assert record.num_faulty > 0
        assert np.all(record.faulty_values == 0.0)

    def test_group7_attenuates_toward_zero(self):
        """Group 7 loses partial sums: |faulty| <= |original| elementwise,
        and an unknown fan-in means total loss (zeros)."""
        ff = FFDescriptor("global_control", group=7, has_feedback=True)
        rng = np.random.default_rng(22)
        original = rng.standard_normal((16, 32)).astype(np.float32)
        record = model_for_ff(ff).apply(original, rng, ff, fan_in=4096)
        assert record.num_faulty > 0
        assert np.all(np.abs(record.faulty_values)
                      <= np.abs(record.original_values))
        rng = np.random.default_rng(22)
        record = model_for_ff(ff).apply(original, rng, ff)
        assert np.all(record.faulty_values == 0.0)

    def test_group5_and_9_values_come_from_the_tensor(self):
        """Wrong-address / stale-input models relocate in-distribution
        values: every faulty value already exists in the input tensor."""
        rng = np.random.default_rng(23)
        original = rng.standard_normal((16, 32)).astype(np.float32)
        pool = set(float32_to_bits(original).reshape(-1).tolist())
        for group in (5, 9):
            ff = FFDescriptor("global_control", group=group, has_feedback=True)
            record = model_for_ff(ff).apply(
                original, np.random.default_rng(group), ff)
            assert record.num_faulty > 0
            faulty_bits = float32_to_bits(record.faulty_values).tolist()
            assert all(b in pool for b in faulty_bits)

    def test_random_value_groups_span_beyond_the_input_range(self):
        """Groups 1/3 and local control inject random full-range float32
        patterns — with enough draws they must exceed the input's scale."""
        rng = np.random.default_rng(24)
        original = rng.standard_normal((4, 8, 6, 6)).astype(np.float32)
        biggest = 0.0
        for seed in range(10):
            ff = FFDescriptor("global_control", group=1, has_feedback=True)
            record = model_for_ff(ff).apply(
                original, np.random.default_rng(seed), ff)
            biggest = max(biggest, record.max_abs_faulty())
        assert biggest > float(np.abs(original).max())
