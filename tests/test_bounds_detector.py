"""Tests for Algorithm 1 bounds and the hardware-failure detector."""

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import FaultInjector, HardwareFault, OpSite
from repro.core.mitigation import (
    DetectionBounds,
    HardwareFailureDetector,
    derive_bounds_for_trainer,
    derive_history_bound,
    derive_mvar_bound,
)
from repro.observe import Tracer, analysis
from repro.workloads import build_workload


class TestHistoryBound:
    def test_formula(self, tiny_resnet_spec):
        """Bound = 20 * sqrt(max n_l) / m.  The worst layer of the tiny
        ResNet is the stem conv: n_l = batch * 16 * 16 output positions."""
        model = tiny_resnet_spec.build_model(0)
        x = tiny_resnet_spec.train_data.inputs[:8]
        bound = derive_history_bound(model, x, batch_size=32)
        worst_n_l = 8 * 16 * 16  # batch shard x spatial positions
        assert bound == pytest.approx(20 * np.sqrt(worst_n_l) / 32)

    def test_scales_inversely_with_batch(self, tiny_resnet_spec):
        model = tiny_resnet_spec.build_model(0)
        x = tiny_resnet_spec.train_data.inputs[:8]
        b32 = derive_history_bound(model, x, batch_size=32)
        b64 = derive_history_bound(model, x, batch_size=64)
        assert b64 == pytest.approx(b32 / 2)

    def test_invalid_batch(self, tiny_resnet_spec):
        model = tiny_resnet_spec.build_model(0)
        with pytest.raises(ValueError):
            derive_history_bound(model, tiny_resnet_spec.train_data.inputs[:4], 0)


class TestMvarBound:
    def test_no_batchnorm_returns_zero(self):
        spec = build_workload("nfnet", size="tiny", seed=0)
        assert derive_mvar_bound(spec.build_model(0), lr=1e-3) == 0.0

    def test_positive_for_bn_models(self, tiny_resnet_spec):
        bound = derive_mvar_bound(tiny_resnet_spec.build_model(0), lr=3e-3)
        assert bound >= 1.0

    def test_grows_with_lr(self, tiny_resnet_spec):
        model = tiny_resnet_spec.build_model(0)
        assert derive_mvar_bound(model, lr=0.1) > derive_mvar_bound(model, lr=1e-4)


class TestBoundsSeparation:
    def test_fault_free_values_within_bounds(self, make_trainer):
        """The whole point of Algorithm 1: fault-free history/mvar values
        never approach the bounds, while Table 4's faulty magnitudes
        (1e8-1e38) exceed them by many orders."""
        trainer = make_trainer(num_devices=2)
        trainer.train(30)
        bounds = derive_bounds_for_trainer(trainer, slack=100.0)
        from repro.optim.base import max_abs

        first = max_abs(trainer.optimizer.first_moment_arrays())
        second = max_abs(trainer.optimizer.second_moment_arrays())
        assert first < bounds.effective_history_bound
        assert second < bounds.effective_second_moment_bound
        assert trainer.mvar_magnitude() < bounds.effective_mvar_bound
        # Margin to the smallest Table 4 magnitude (2.7e8) is enormous.
        assert bounds.effective_history_bound < 2.7e8 / 100
        assert bounds.effective_mvar_bound < 6.5e16 / 100

    @pytest.mark.parametrize("workload", ["resnet", "transformer"])
    def test_deriving_bounds_leaves_training_state_alone(self, make_trainer,
                                                         workload):
        """Sec. 5.1's detector reads: the shape-reading forward must not
        update BatchNorm moving statistics, draw from Dropout streams or
        leave the model in another mode."""
        from repro.state import training_state_digest

        trainer = make_trainer(workload=workload, num_devices=2)
        trainer.train(2)
        trainer.master.eval()
        next(trainer.master.modules()).training = True  # a mixed mode
        modes = [m.training for m in trainer.master.modules()]
        digest = training_state_digest(trainer)
        bounds = derive_bounds_for_trainer(trainer)
        assert bounds.history_bound > 0
        assert training_state_digest(trainer) == digest
        assert [m.training for m in trainer.master.modules()] == modes

    def test_effective_bounds(self):
        bounds = DetectionBounds(history_bound=10.0, mvar_bound=2.0, slack=5.0)
        assert bounds.effective_history_bound == 50.0
        assert bounds.effective_second_moment_bound == 2500.0
        assert bounds.effective_mvar_bound == 10.0


class TestDetector:
    def test_no_false_positives_fault_free(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)
        trainer.train(40)
        assert not detector.fired
        assert detector.checks == 40

    def test_detects_history_corruption(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)

        class CorruptHistory:
            def after_backward(self, tr, iteration):
                if iteration == 5:
                    next(iter(tr.master.parameters())).grad[:] = 1e12

        trainer.hooks.insert(0, CorruptHistory())
        trainer.train(8)
        assert detector.fired
        event = detector.events[0]
        assert event.condition in ("first_moment", "second_moment")
        assert detector.detection_latency(5) == 0

    def test_detects_mvar_corruption(self, make_trainer):
        from repro.nn.normalization import batchnorm_layers

        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)

        class CorruptMvar:
            def after_backward(self, tr, iteration):
                if iteration == 4:
                    batchnorm_layers(tr.replicas[1])[0].moving_var[:] = 1e20

        trainer.hooks.insert(0, CorruptMvar())
        trainer.train(7)
        assert detector.fired
        assert detector.events[0].condition == "mvar"
        assert detector.detection_latency(4) == 0

    def test_detects_inf_mvar(self, make_trainer):
        from repro.nn.normalization import batchnorm_layers

        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)

        class CorruptMvar:
            def after_backward(self, tr, iteration):
                if iteration == 3:
                    batchnorm_layers(tr.replicas[0])[0].moving_var[:] = np.inf

        trainer.hooks.insert(0, CorruptMvar())
        trainer.train(5)
        assert detector.fired

    @pytest.mark.parametrize("first, magnitude", [(2.0 ** 70, 2.0 ** 70), (np.nan, np.inf)])
    def test_mvar_event_names_the_first_violating_layer(self, make_trainer,
                                                        first, magnitude):
        """The one-pass screen only decides whether to walk: the event is
        still the first violating layer's, in replica-then-layer order,
        and a NaN statistic still violates."""
        from repro.nn.normalization import batchnorm_layers

        trainer = make_trainer(num_devices=2)
        trainer.train(2)
        detector = HardwareFailureDetector()
        assert detector.check(trainer, 2) is None
        layers = batchnorm_layers(trainer.replicas[1])
        layers[1].moving_mean[0] = -first
        layers[3].moving_var[:] = 3e30
        event = detector.check(trainer, 3)
        assert (event.iteration, event.condition) == (3, "mvar")
        assert event.magnitude == magnitude
        assert event.bound == detector.bounds.effective_mvar_bound

    def test_no_mvar_check_without_bn(self, make_trainer):
        trainer = make_trainer(workload="nfnet", num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)
        trainer.train(10)
        assert not detector.fired

    def test_event_describe(self):
        from repro.core.mitigation import Detection

        event = Detection(7, "alg1", "mvar", 1e20, 100.0)
        text = event.describe()
        assert "iteration 7" in text and "mvar" in text

    def test_detection_recorded_on_trainer(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        trainer.add_hook(detector)

        class Corrupt:
            def after_backward(self, tr, iteration):
                if iteration == 2:
                    next(iter(tr.master.parameters())).grad[:] = 1e15

        trainer.hooks.insert(0, Corrupt())
        trainer.train(4)
        assert 2 in trainer.record.detections

    def test_a_firing_before_the_fault_is_no_detection_of_it(self, make_trainer):
        """Bounds small enough to fire from iteration 0 on: the latency
        of a fault at 5 counts from the first firing at or after 5, on
        the detector and in the trace alike, never negative."""
        tracer = Tracer()
        trainer = make_trainer(num_devices=2, tracer=tracer,
                               stop_on_nonfinite=False)
        detector = HardwareFailureDetector(
            DetectionBounds(history_bound=1e-12, mvar_bound=1e-12, slack=1.0))
        fault = HardwareFault(
            ff=FFDescriptor("global_control", group=1, has_feedback=True),
            site=OpSite("1.conv1", "forward"), iteration=5, device=0, seed=3)
        trainer.add_hook(FaultInjector(fault))
        trainer.add_hook(detector)
        trainer.train(8)
        assert detector.fired_at() == 0
        assert detector.detection_latency(5) == 0
        assert detector.detection_latency(8) is None
        [row] = analysis.detection_latencies(tracer.events())
        assert (row["detected_at"], row["latency"]) == (5, 0)
        [summary] = analysis.propagation_summaries(tracer.events()).values()
        assert summary["detection_latency"] == 0
