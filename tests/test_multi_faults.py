"""Tests for multiple-fault experiments (Sec. 4.3.2)."""

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import (
    FaultInjector,
    HardwareFault,
    OpSite,
    expected_faults_per_run,
    sample_fault,
    sample_spread_faults,
)
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryManager,
)


def _fault(iteration, device=0, seed=3, site="1.conv1", kind="weight_grad"):
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    return HardwareFault(ff=ff, site=OpSite(site, kind), iteration=iteration,
                         device=device, seed=seed)


def _add_injectors(trainer, faults):
    """One injector per fault, in fault order."""
    injectors = [FaultInjector(fault) for fault in faults]
    for injector in injectors:
        trainer.add_hook(injector)
    return injectors


class TestMultipleFaults:
    def test_all_faults_fire(self, make_trainer):
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        injectors = _add_injectors(trainer, [_fault(2), _fault(6, seed=4)])
        trainer.train(10)
        assert all(injector.fired for injector in injectors)
        assert all(injector.record is not None for injector in injectors)

    def test_same_iteration_faults(self, make_trainer):
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        injectors = _add_injectors(trainer, [
            _fault(3, device=0, seed=1),
            _fault(3, device=1, seed=2, site="2.conv1"),
        ])
        trainer.train(6)
        assert all(injector.fired for injector in injectors)

    def test_mitigation_recovers_each_fault_independently(self, make_trainer):
        """The paper's claim: spread-out failures have independent effects,
        so per-fault detection + 2-iteration re-execution handles each."""
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(max_recoveries=8))
        _add_injectors(trainer, [_fault(6, seed=3), _fault(20, seed=3)])
        trainer.add_hook(mitigation)
        trainer.train(40)
        assert len(trainer.record.detections) >= 2
        assert len(trainer.record.recoveries) >= 2
        assert trainer.optimizer.history_magnitude() < 1e3
        assert trainer.record.nonfinite_at is None


class TestFailureRateModel:
    def test_midsize_run_sees_less_than_one_fault(self):
        """Sec. 4.3.2: mid-sized DNN training sees at most ~one failure."""
        expected = expected_faults_per_run(
            iterations=100_000, seconds_per_iteration=0.1, num_devices=8,
            failures_per_device_hour=1e-4,
        )
        assert expected < 1.0

    def test_scales_linearly(self):
        one = expected_faults_per_run(1000, 1.0, 8)
        two = expected_faults_per_run(2000, 1.0, 8)
        assert two == pytest.approx(2 * one)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            expected_faults_per_run(0, 1.0, 8)


class TestSpreadSampling:
    def test_faults_are_spread(self, tiny_resnet_spec, rng):
        model = tiny_resnet_spec.build_model(0)

        def sampler(r):
            return sample_fault(model, r, max_iteration=10, num_devices=2)

        faults = sample_spread_faults(sampler, rng, count=4, total_iterations=400)
        iterations = [f.iteration for f in faults]
        assert iterations == sorted(iterations)
        gaps = np.diff(iterations)
        assert np.all(gaps >= 400 // 8)
        assert max(iterations) < 400

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            sample_spread_faults(lambda r: None, rng, count=0, total_iterations=10)
