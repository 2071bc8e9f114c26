"""Tests for recovery by re-execution from the snapshot ring: two
iterations back (Sec. 5.2) and an epoch back, the checkpoint baseline
(Sec. 5.3)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import FaultInjector, HardwareFault, OpSite
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryError,
    RecoveryManager,
)
from repro.core.mitigation.baselines import ABFTChecker
from repro.distributed import SyncDataParallelTrainer
from repro.optim import SGD, RMSProp
from repro.state import training_state_digest
from repro.workloads import build_workload
from tests.conftest import once


def history_fault(iteration=5, seed=3):
    """A backward-pass group-1 fault that corrupts optimizer history."""
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    return HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                         iteration=iteration, device=1, seed=seed)


def moderate_corruption(iteration: int, scale: float = 1e10):
    """Synthetic *transient* fault: corrupts one gradient once.

    One-shot by construction — a transient hardware fault does not recur
    when the iteration is re-executed, so the hook must not either.
    """
    def corrupt(trainer):
        next(iter(trainer.master.parameters())).grad[:] = scale

    return once("after_backward", iteration, corrupt)


class TestSnapshotRewind:
    def test_rewind_restores_exact_state(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        recovery = RecoveryManager(strategy="snapshot")
        trainer.add_hook(recovery)
        trainer.train(5)
        state_at_3 = None
        # Capture a reference by replaying a fresh trainer to iteration 3.
        ref = make_trainer(num_devices=2)
        ref.train(3)
        state_at_3 = ref.master.state_dict()
        resume = recovery.rewind(trainer, iterations=2, detected_at=4)
        assert resume == 3
        assert trainer.iteration == 3
        now = trainer.master.state_dict()
        for key in state_at_3:
            assert np.array_equal(now[key], state_at_3[key]), key

    def test_rewind_truncates_record(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        recovery = RecoveryManager(strategy="snapshot")
        trainer.add_hook(recovery)
        trainer.train(6)
        recovery.rewind(trainer, detected_at=5)
        assert trainer.record.num_iterations == 4  # iterations 0-3 kept
        assert trainer.record.recoveries == [4]

    def test_rewind_without_snapshots_fails(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        recovery = RecoveryManager(strategy="snapshot")
        with pytest.raises(RecoveryError):
            recovery.rewind(trainer, detected_at=0)

    def test_recovery_limit(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        recovery = RecoveryManager(strategy="snapshot", max_recoveries=1)
        trainer.add_hook(recovery)
        trainer.train(4)
        recovery.rewind(trainer, detected_at=3)
        with pytest.raises(RecoveryError):
            recovery.rewind(trainer, detected_at=3)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            RecoveryManager(strategy="magic")

    def test_defaults_keep_the_three_newest_iterations(self, make_trainer):
        trainer = make_trainer()
        ring = RecoveryManager()
        trainer.add_hook(ring)
        trainer.train(6)
        assert [s.iteration for s in ring.snapshots] == [3, 4, 5]


def _assert_inverts_one_step(spec) -> None:
    """Train 4 iterations, invert the last one arithmetically, and
    compare parameters and optimizer slots with a run of 3."""
    trainer = SyncDataParallelTrainer(spec, num_devices=2, test_every=0)
    recovery = RecoveryManager(strategy="arithmetic")
    trainer.add_hook(recovery)
    trainer.train(4)
    reference = SyncDataParallelTrainer(spec, num_devices=2, test_every=0)
    reference.train(3)
    resume = recovery.rewind(trainer, iterations=1, detected_at=3)
    assert resume == 3

    def close(a, b, what):
        scale = np.abs(b).max() + 1e-6
        assert np.abs(a - b).max() / scale < 1e-5, what

    now, ref = trainer.master.state_dict(), reference.master.state_dict()
    for key in ref:
        close(now[key], ref[key], key)
    now, ref = trainer.optimizer, reference.optimizer
    assert now.iteration == ref.iteration == 3
    assert ref.slots, "the optimizer keeps no slots to invert"
    for name, buf in ref.slots.items():
        assert np.abs(buf).max() > 0, name
        for key, a, b in zip(trainer.master_arena.names(),
                             now.index_views(now.slots[name]),
                             ref.index_views(buf)):
            close(a, b, f"{name}[{key}]")


class TestArithmeticRewind:
    def test_refuses_a_cadence(self):
        """The arithmetic rewind inverts each iteration it re-executes,
        so it cannot skip any."""
        with pytest.raises(ValueError, match="every=1"):
            RecoveryManager(strategy="arithmetic", every=2)

    def test_inverts_adam_step_closely(self):
        _assert_inverts_one_step(build_workload("resnet", size="tiny"))

    @pytest.mark.parametrize("optimizer_fn", [
        lambda params: SGD(params, lr=0.05, momentum=0.9),
        lambda params: RMSProp(params, lr=1e-3),
    ], ids=["sgd_momentum", "rmsprop"])
    def test_inverts_step_closely(self, optimizer_fn):
        spec = replace(build_workload("resnet", size="tiny"),
                       optimizer_fn=optimizer_fn)
        _assert_inverts_one_step(spec)

    def test_overflowed_state_not_invertible(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        recovery = RecoveryManager(strategy="arithmetic")
        trainer.add_hook(recovery)
        trainer.hooks.insert(0, moderate_corruption(iteration=3, scale=1e30))
        trainer.train(5)
        with pytest.raises(RecoveryError, match="not invertible"):
            recovery.rewind(trainer, detected_at=4)


class TestMitigationEndToEnd:
    def test_detect_recover_continue(self, make_trainer):
        """The full Sec. 5 pipeline: a history-corrupting fault is
        detected within two iterations, two iterations are re-executed,
        and training finishes with fault-free-level accuracy."""
        trainer = make_trainer(num_devices=2, test_every=10)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(strategy="snapshot"))
        injector = FaultInjector(history_fault(iteration=10, seed=3))
        trainer.add_hook(injector)
        trainer.add_hook(mitigation)
        trainer.train(50)
        rec = trainer.record

        baseline = make_trainer(num_devices=2, test_every=10)
        baseline.train(50)

        assert detector.fired
        assert detector.detection_latency(10) <= 2
        assert rec.recoveries  # re-execution happened
        assert rec.nonfinite_at is None
        # History values are clean again after recovery.
        assert trainer.optimizer.history_magnitude() < 1e3
        assert rec.final_train_accuracy() >= baseline.record.final_train_accuracy() - 0.1

    def test_mitigated_run_matches_unfaulted_trajectory(self, make_trainer):
        """After recovery, the re-executed iterations see the same batches
        and random draws, so the trajectory equals the fault-free run."""
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(strategy="snapshot"))
        trainer.add_hook(moderate_corruption(iteration=6, scale=1e12))
        trainer.add_hook(mitigation)
        trainer.train(12)

        clean = make_trainer(num_devices=2)
        clean.train(12)
        for (n1, p1), (n2, p2) in zip(
            trainer.master.named_parameters(), clean.master.named_parameters()
        ):
            assert np.allclose(p1.data, p2.data, atol=1e-5), n1

    def test_arithmetic_strategy_end_to_end(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(strategy="arithmetic"))
        trainer.add_hook(moderate_corruption(iteration=6, scale=1e10))
        trainer.add_hook(mitigation)
        trainer.train(15)
        assert detector.fired
        assert trainer.record.recoveries
        assert trainer.optimizer.history_magnitude() < 1e3
        assert trainer.record.final_train_accuracy() > 0.3

    def test_inf_nan_fault_recovered(self, make_trainer):
        """Even a fault that would make the loss non-finite is caught and
        rolled back: the training loop continues instead of stopping."""
        trainer = make_trainer(num_devices=2)
        detector = HardwareFailureDetector()
        mitigation = MitigationHook(detector, RecoveryManager(strategy="snapshot"))
        trainer.add_hook(moderate_corruption(iteration=5, scale=1e38))
        trainer.add_hook(mitigation)
        rec = trainer.train(12)
        assert rec.nonfinite_at is None
        assert rec.recoveries
        assert rec.num_iterations == 12

    def test_any_guard_drives_the_rewind(self, make_trainer):
        """The hook rewinds on a firing from any guard, not only
        Algorithm 1's: ABFT catches a one-shot forward fault in its
        iteration, two iterations re-execute clean, and the run ends in
        the fault-free run's training state, byte for byte."""
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "forward"),
                              iteration=6, device=0, seed=3)
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        checker = ABFTChecker()
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.add_hook(MitigationHook(checker, RecoveryManager("snapshot")))
        trainer.train(12)

        clean = make_trainer(num_devices=2)
        clean.train(12)
        assert injector.fired and checker.fired_at() == 6
        assert trainer.record.recoveries == [5]
        assert training_state_digest(trainer) == training_state_digest(clean)
