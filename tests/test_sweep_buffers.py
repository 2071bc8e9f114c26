"""Tests for the on-chip buffer model."""

from repro.accelerator.buffers import BufferModel, conv_footprint
from repro.accelerator.config import AcceleratorConfig


class TestBufferModel:
    def test_small_tile_fits(self):
        fp = conv_footprint(8, 16, 3, 16, 16, batch=8)
        model = BufferModel()
        assert model.fits(fp)
        assert model.dram_round_trips(fp) == 1
        assert model.input_read_cycles(fp) == "buffer"

    def test_large_tile_streams_from_dram(self):
        fp = conv_footprint(256, 256, 3, 64, 64, batch=8)
        model = BufferModel()
        assert not model.fits(fp)
        assert model.dram_round_trips(fp) > 1
        assert model.input_read_cycles(fp) == "dram"

    def test_round_trips_monotone_in_size(self):
        model = BufferModel()
        small = conv_footprint(16, 16, 3, 32, 32)
        large = conv_footprint(64, 64, 3, 64, 64)
        assert model.dram_round_trips(small) <= model.dram_round_trips(large)

    def test_feedback_bound_clamped(self):
        model = BufferModel()
        tiny = conv_footprint(1, 1, 1, 2, 2)
        big = conv_footprint(64, 64, 3, 32, 32)
        assert 1 <= model.max_feedback_cycles(tiny)
        assert model.max_feedback_cycles(big) == model.config.max_feedback_loop

    def test_capacity_follows_config(self):
        small_cfg = AcceleratorConfig(buffer_kb=1)
        fp = conv_footprint(8, 8, 3, 16, 16)
        assert not BufferModel(small_cfg).fits(fp)
        assert BufferModel().capacity_bytes == 512 * 1024

    def test_footprint_totals(self):
        fp = conv_footprint(2, 4, 3, 8, 8, batch=2)
        assert fp.input_bytes == 2 * 2 * 8 * 8 * 2      # bf16 inputs
        assert fp.weight_bytes == 4 * 2 * 9 * 2         # bf16 weights
        assert fp.output_bytes == 2 * 4 * 8 * 8 * 4     # fp32 outputs
        assert fp.total_bytes == (fp.input_bytes + fp.weight_bytes
                                  + fp.output_bytes + fp.partial_sum_bytes)
