"""Tests for campaign report rendering and accelerator config presets."""

import numpy as np
import pytest

from repro.accelerator.config import (
    CONFIG_PRESETS,
    CPU_SIMD_CONFIG,
    DEFAULT_CONFIG,
    GPU_LIKE_CONFIG,
    AcceleratorConfig,
)
from repro.accelerator.dataflow import DataflowMap
from repro.core.analysis.report import (
    campaign_report_dict,
    render_campaign,
    render_convergence,
)
from repro.training.metrics import ConvergenceRecord


class TestConfigPresets:
    def test_presets_registered(self):
        assert set(CONFIG_PRESETS) == {"nvdla", "gpu_like", "cpu_simd"}
        assert CONFIG_PRESETS["nvdla"] is DEFAULT_CONFIG

    def test_geometry_differs(self):
        shape = (1, 64, 4, 4)
        nvdla = DataflowMap(shape, DEFAULT_CONFIG)
        gpu = DataflowMap(shape, GPU_LIKE_CONFIG)
        cpu = DataflowMap(shape, CPU_SIMD_CONFIG)
        assert nvdla.channel_groups == 4   # 64 / 16 lanes
        assert gpu.channel_groups == 2     # 64 / 32 lanes
        assert cpu.channel_groups == 8     # 64 / 8 lanes

    def test_fault_models_retarget(self, rng):
        """The same fault model produces geometry matching the preset."""
        from repro.accelerator.ffs import FFDescriptor
        from repro.core.faults.software_models import model_for_ff

        tensor = rng.normal(size=(1, 64, 4, 4)).astype(np.float32)
        ff = FFDescriptor("global_control", group=1, has_feedback=False)
        rec_gpu = model_for_ff(ff, GPU_LIKE_CONFIG).apply(
            tensor, np.random.default_rng(0), ff)
        rec_cpu = model_for_ff(ff, CPU_SIMD_CONFIG).apply(
            tensor, np.random.default_rng(0), ff)
        assert rec_gpu.num_faulty == 32  # one GPU-like cycle
        assert rec_cpu.num_faulty == 8   # one CPU-SIMD cycle

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(mac_lanes=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(max_feedback_loop=0)


class TestConvergenceReport:
    def _record(self):
        rec = ConvergenceRecord()
        for i in range(6):
            rec.record_train(i, 1.0 - 0.1 * i, 0.1 * i)
        rec.record_test(5, 0.42)
        rec.detections.append(3)
        rec.recoveries.append(2)
        rec.mark_nonfinite(4)
        return rec

    def test_render_contains_all_events(self):
        text = render_convergence(self._record(), title="demo")
        assert "# demo" in text
        assert "iter     0" in text
        assert "test_acc 0.4200" in text
        assert "INFs/NaNs observed at iteration 4" in text
        assert "detected at iteration 3" in text
        assert "re-executed from iteration 2" in text

    def test_every_parameter_thins_output(self):
        full = render_convergence(self._record(), every=1)
        thin = render_convergence(self._record(), every=3)
        assert len(thin.splitlines()) < len(full.splitlines())


class TestCampaignReport:
    def test_render_campaign(self, make_trainer):
        from repro.core.faults import Campaign
        from repro.workloads import build_workload

        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=6,
                            horizon=12, inject_window=4, test_every=6)
        report = campaign_report_dict(
            campaign.run(num_experiments=3, seed=1).payloads)
        text = render_campaign(report, "resnet")
        assert "# campaign: resnet (3 experiments)" in text
        assert "outcome breakdown" in text
        # Every rate with an interval prints as estimate [lo, hi] (n=...).
        assert report["intervals"]
        for name, interval in report["intervals"].items():
            assert f"  {name} " in text
            assert f"] (n={interval['n']})" in text
        assert "!! 3 experiments < 4147" in text
