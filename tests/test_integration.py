"""End-to-end integration tests reproducing the paper's key mechanisms.

Each test forces one of the paper's fault-propagation paths (Fig. 4) and
verifies the predicted observable: which state class carries the fault,
which outcome appears, and whether the mitigation catches it.
"""

import numpy as np

from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis.propagation import PropagationTracer
from repro.core.faults import FaultInjector, HardwareFault, OpSite, PinnedMagnitude
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryManager,
)
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload


def run_with_fault(workload, site, kind, iteration, seed, num_devices=2,
                   extra_iters=25, ff=None, eval_device=None, test_every=5):
    spec = build_workload(workload, size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(
        spec, num_devices=num_devices, seed=0, test_every=test_every,
        eval_device=eval_device or 0,
    )
    trainer.train(iteration)
    ff = ff or FFDescriptor("global_control", group=1, has_feedback=True)
    fault = HardwareFault(ff=ff, site=OpSite(site, kind), iteration=iteration,
                          device=eval_device or 0, seed=seed)
    injector = FaultInjector(fault)
    tracer = PropagationTracer()
    trainer.add_hook(injector)
    trainer.add_hook(tracer)
    trainer.train(extra_iters)
    return trainer, injector, tracer


class TestPropagationPaths:
    def test_backward_fault_corrupts_gradient_history(self):
        """Fig. 4 upper path: a backward-pass fault inflates the
        optimizer's gradient-history values within two iterations."""
        trainer, injector, tracer = run_with_fault(
            "resnet", "1.conv1", "weight_grad", iteration=8, seed=3
        )
        assert injector.fired
        onsets = [o for o in tracer.condition_onsets(8)
                  if o.condition == "gradient_history"]
        assert onsets
        assert onsets[0].latency_from_fault <= 2

    def test_forward_fault_corrupts_mvar(self):
        """Fig. 4 lower path: a huge forward-pass activation inflates the
        downstream BatchNorm's moving variance at iteration t."""
        found = False
        for seed in range(8):
            trainer, injector, tracer = run_with_fault(
                "resnet", "1.conv1", "forward", iteration=8, seed=seed,
                extra_iters=6,
            )
            if injector.record and injector.record.max_abs_faulty() > 1e20:
                window = tracer.condition_magnitude_in_window(8)
                assert window["max_mvar"] > 1e10
                found = True
                break
        assert found, "no seed produced a huge forward fault"

    def test_softmax_bounds_last_layer_faults(self):
        """A huge faulty logit is squashed by softmax: the loss gradient
        stays within [-1/m, 1/m] (Algorithm 1's anchor), so last-layer
        forward faults cannot inflate gradient history."""
        trainer, injector, tracer = run_with_fault(
            "resnet", "4", "forward", iteration=8, seed=3, extra_iters=4
        )
        assert injector.fired
        window = tracer.condition_magnitude_in_window(8)
        assert window["max_history"] < 10.0


class TestOutcomeMechanisms:
    def test_corrupted_mvar_causes_low_test_accuracy(self):
        """Force the LowTestAccuracy mechanism end to end: huge mvar on
        one device -> training accuracy normal, that device's test
        accuracy destroyed, recovery slow under a large decay factor."""
        spec = build_workload("resnet_largedecay", size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0,
                                          test_every=5, eval_device=1)
        trainer.train(10)
        from repro.nn.normalization import batchnorm_layers

        for bn in batchnorm_layers(trainer.replicas[1]):
            bn.moving_var[:] = 1e25
        trainer.train(15)
        rec = trainer.record
        # Training accuracy keeps improving; test accuracy collapsed.
        assert rec.final_train_accuracy() > 0.5
        assert rec.test_acc[-1] < 0.3
        # With decay 0.99, 1e25 needs ~log(1e-25)/log(0.99) ~ 5700
        # iterations to normalize: recovery is far beyond the budget.
        from repro.core.analysis.phases import expected_stagnation_iterations

        assert expected_stagnation_iterations(1e25, 0.99) > 1000

    def test_sgd_weight_update_fault_creates_large_weights(self):
        """Sec. 4.2.2: with SGD (no gradient normalization), a fault in
        the weight-update operation creates large absolute weights."""
        from repro.core.faults import FaultInjector

        spec = build_workload("resnet_sgd", size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0,
                                          stop_on_nonfinite=False)
        trainer.train(8)
        before = max(np.abs(p.data).max() for p in trainer.master.parameters())
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        fault = HardwareFault(ff=ff, site=OpSite("optimizer", "weight_update"),
                              iteration=8, device=0, seed=12)
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(2)
        if injector.record and injector.record.max_abs_faulty() > 1e6:
            # NaN weights are also "large faulty weights" here: map all
            # non-finite values to the float32 extreme before comparing.
            after = max(
                np.abs(np.nan_to_num(p.data, nan=3e38, posinf=3e38, neginf=-3e38)).max()
                for p in trainer.master.parameters()
            )
            assert after > before * 1e3

    def test_adam_normalization_blocks_weight_blowup(self):
        """The counterpart: under Adam, even a huge faulty *gradient*
        cannot create large weights (updates are normalized) — which is
        why SharpDegrade needs a non-normalizing optimizer."""
        trainer, injector, tracer = run_with_fault(
            "resnet", "1.conv1", "weight_grad", iteration=8, seed=3, extra_iters=3
        )
        assert injector.record.max_abs_faulty() > 1e20
        max_w = max(
            np.abs(np.nan_to_num(p.data)).max() for p in trainer.master.parameters()
        )
        assert max_w < 100.0


class TestMitigationAgainstRealFaults:
    def test_detector_catches_injected_backward_fault(self):
        spec = build_workload("resnet", size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(strategy="snapshot"))
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                              iteration=8, device=1, seed=3)
        trainer.add_hook(FaultInjector(fault))
        trainer.add_hook(mitigation)
        rec = trainer.train(40)
        assert detector.fired
        assert detector.detection_latency(8) <= 2
        assert rec.recoveries
        # Training completed with clean history state.
        assert trainer.optimizer.history_magnitude() < 1e3
        assert rec.final_train_accuracy() > 0.5

    def test_detection_latency_bounded_over_many_seeds(self):
        """For every seed whose fault actually corrupts a necessary
        condition, detection happens within two iterations — the paper's
        bounded-latency guarantee."""
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        latencies = []
        for seed in range(6):
            spec = build_workload("resnet", size="tiny", seed=0)
            trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0,
                                              test_every=0, stop_on_nonfinite=False)
            detector = HardwareFailureDetector()
            fault = HardwareFault(ff=ff, site=OpSite("1.conv2", "weight_grad"),
                                  iteration=6, device=0, seed=seed)
            trainer.add_hook(FaultInjector(fault))
            trainer.add_hook(detector)
            trainer.train(12)
            if detector.fired:
                latencies.append(detector.detection_latency(6))
        assert latencies, "no fault was detected in any seed"
        assert all(lat <= 2 for lat in latencies)


class TestLossObservability:
    """Observation 2's tail: forward-pass faults announce themselves with
    a loss spike at the fault iteration; backward-pass faults that corrupt
    history leave the loss looking normal — which is why loss monitoring
    alone cannot replace the bound checks."""

    @staticmethod
    def _loss_spike_ratio(workload, kind, seed, magnitude=1e8):
        spec = build_workload(workload, size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0,
                                          test_every=0, stop_on_nonfinite=False)
        fault = HardwareFault(ff=FFDescriptor("global_control", group=1),
                              site=OpSite("1.conv1", kind), iteration=8,
                              device=0, seed=seed,
                              pinned=PinnedMagnitude(magnitude, elements=64))
        trainer.add_hook(FaultInjector(fault))
        trainer.train(12)
        losses = trainer.record.loss_array()
        baseline = float(np.median(losses[4:8]))
        at_fault = float(losses[8])
        return at_fault / max(baseline, 1e-9)

    def test_forward_fault_spikes_loss(self):
        # Cross-entropy bounds the spike (saturated softmax ~ -log p_min),
        # but it is still several times the baseline.
        ratio = self._loss_spike_ratio("resnet_nobn", "forward", seed=2)
        assert ratio > 3.0

    def test_backward_fault_leaves_loss_normal(self):
        ratio = self._loss_spike_ratio("resnet_nobn", "weight_grad", seed=2)
        assert ratio < 2.0
