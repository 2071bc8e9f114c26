"""Tests for the baseline mitigation techniques (Sec. 5.3 / Sec. 6)."""

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.backend import BatchedBackend, LaneGroup, run_lockstep
from repro.core.faults import FaultInjector, HardwareFault, OpSite
from repro.nn import Conv2D, Dense
from repro.core.mitigation import RecoveryError, RecoveryManager
from repro.core.mitigation.baselines import (
    ABFTChecker,
    GradientClipper,
    RangerGuard,
)
from repro.state import training_state_digest
from tests.conftest import once


def blow_up_stem(trainer):
    """Scale device 0's stem convolution by 1e8: every activation after
    it leaves its profiled range."""
    conv = dict(trainer.replicas[0].named_modules())["0.0"]
    conv.weight.data *= 1e8


def forward_fault(iteration=3, seed=3, site="1.conv1"):
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    return HardwareFault(ff=ff, site=OpSite(site, "forward"),
                         iteration=iteration, device=0, seed=seed)


class TestABFT:
    def test_no_violations_fault_free(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        checker = ABFTChecker()
        trainer.add_hook(checker)
        trainer.train(5)
        assert not checker.fired
        assert checker.checks > 0

    @pytest.mark.parametrize("weight_grads", [False, True])
    def test_checks_count_verifications_performed(self, make_trainer, weight_grads):
        trainer = make_trainer(num_devices=2)
        checker = ABFTChecker(check_weight_grads=weight_grads)
        trainer.add_hook(checker)
        trainer.train(3)
        mac_layers = sum(isinstance(m, (Conv2D, Dense)) for m in trainer.master.modules())
        checksums = mac_layers * trainer.num_devices * 3
        assert checker.checks == checksums * (2 if weight_grads else 1)

    @pytest.mark.parametrize("backend", ["batched"])
    def test_raises_where_replicas_run_no_forward(self, make_trainer, backend):
        """The program replica keeps the operands of the last block of
        lanes only, so in a shared group of more lanes than one block an
        earlier experiment's ABFT must say so, not report checks of
        nothing."""
        experiments = LaneGroup.lane_chunk // 2 + 1  # two blocks of lanes
        group = LaneGroup(capacity=experiments)
        trainers = [make_trainer(num_devices=2,
                                 backend=BatchedBackend(group=group))
                    for _ in range(experiments)]
        trainers[0].add_hook(ABFTChecker())
        try:
            with pytest.raises(RuntimeError, match=backend):
                run_lockstep(group, trainers, [1] * experiments)
        finally:
            for trainer in trainers:
                trainer.close()

    @pytest.mark.parametrize("backend", ["inprocess", "batched"])
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_lane_step_checks_equal_the_solo_loop(self, make_trainer, forced_solo,
                                                  backend, devices):
        """ABFT verifies the instances that ran the forward — lanes of
        the program replica by default, the replicas on the solo loop —
        and reports the same checks and violations either way."""
        def run():
            trainer = make_trainer(num_devices=devices, backend=backend,
                                   stop_on_nonfinite=False, test_every=2)
            checker = ABFTChecker()
            trainer.add_hook(FaultInjector(forward_fault(iteration=2)))
            trainer.add_hook(checker)
            with trainer:
                vectorized = trainer.backend.group.vectorized
                trainer.train(5)
            return vectorized, checker

        lanes, default = run()
        with forced_solo():
            solo_lanes, solo = run()
        assert lanes and not solo_lanes
        assert default.fired and default.fired_at() == solo.fired_at() == 2
        assert default.checks == solo.checks
        assert [(v.iteration, v.condition) for v in default.events] == \
            [(v.iteration, v.condition) for v in solo.events]

    def test_detects_forward_output_corruption(self, make_trainer):
        """ABFT's strength: a corrupted matmul output breaks the checksum
        identity immediately."""
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        checker = ABFTChecker()
        injector = FaultInjector(forward_fault(iteration=3))
        trainer.add_hook(injector)
        trainer.add_hook(checker)
        trainer.train(5)
        assert injector.fired
        assert checker.fired
        assert checker.fired_at() == 3

    def test_misses_history_only_corruption(self, make_trainer):
        """ABFT's blind spot (why the paper's technique wins): corruption
        of optimizer history values leaves every matmul checksum intact."""
        trainer = make_trainer(num_devices=2)
        checker = ABFTChecker()

        def corrupt_history_directly(tr):
            tr.optimizer.second_moment_arrays()[0][:] = 1e20  # faulty second moment

        trainer.add_hook(once("after_step", 3, corrupt_history_directly))
        trainer.add_hook(checker)
        trainer.train(6)
        assert not checker.fired

    def test_detects_nonfinite_weight_grad(self, make_trainer):
        trainer = make_trainer(num_devices=2, stop_on_nonfinite=False)
        checker = ABFTChecker(check_weight_grads=True)

        def poison_grad(tr):
            next(iter(tr.master.parameters())).grad[:] = np.inf

        trainer.add_hook(once("after_backward", 2, poison_grad))
        trainer.add_hook(checker)
        trainer.train(4)
        assert checker.fired


class TestRanger:
    def test_profiles_then_flags(self, make_trainer):
        # resnet_nobn: without BatchNorm downstream of the blown-up conv,
        # nothing re-normalizes the huge activations before the guarded
        # ReLU (with BN present, normalization masks them — the paper's
        # Observation 3, covered by test_no_false_positives below).
        trainer = make_trainer(workload="resnet_nobn", num_devices=2,
                               stop_on_nonfinite=False)
        guard = RangerGuard(profile_iterations=5, margin=2.0)
        trainer.add_hook(guard)
        trainer.train(5)  # profiling phase
        assert guard.bounds  # bounds learned

        # Corrupt an activation input hugely: the guard must flag it.
        trainer.hooks.insert(0, once("before_iteration", 7, blow_up_stem))
        trainer.train(4)
        assert guard.fired
        guard.uninstall()

    def test_stamps_the_trainer_iteration(self, make_trainer):
        """A guard installed mid-run stamps the iteration the trainer is
        running, not the iterations it has seen since it was installed."""
        trainer = make_trainer(workload="resnet_nobn", num_devices=2,
                               stop_on_nonfinite=False)
        trainer.train(10)
        guard = RangerGuard(profile_iterations=5, margin=2.0)
        trainer.add_hook(guard)
        trainer.hooks.insert(0, once("before_iteration", 16, blow_up_stem))
        trainer.train(8)
        assert guard.fired_at() == 16
        assert guard.detection_latency(16) == 0
        guard.uninstall()

    def test_no_false_positives_fault_free(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        guard = RangerGuard(profile_iterations=10, margin=3.0)
        trainer.add_hook(guard)
        trainer.train(25)
        assert not guard.fired
        guard.uninstall()

    def test_misses_backward_pass_faults(self, make_trainer):
        """Activation bounds only see the forward pass: a backward-pass
        history-corrupting fault slips through (the paper: only 33.7% of
        latent outcomes detected)."""
        trainer = make_trainer(num_devices=2)
        guard = RangerGuard(profile_iterations=5, margin=2.0)

        def corrupt_history(tr):
            tr.optimizer.second_moment_arrays()[0][:] = 1e19

        trainer.add_hook(guard)
        trainer.add_hook(once("after_step", 8, corrupt_history))
        trainer.train(12)
        assert not guard.fired
        guard.uninstall()

    def test_clamp_mode(self, make_trainer):
        trainer = make_trainer(workload="resnet_nobn", num_devices=2,
                               stop_on_nonfinite=False)
        guard = RangerGuard(profile_iterations=3, margin=2.0, clamp=True)
        trainer.add_hook(guard)
        trainer.train(3)

        trainer.hooks.insert(0, once("before_iteration", 4, blow_up_stem))
        trainer.train(3)
        assert guard.fired
        guard.uninstall()


class TestGradientClipper:
    def test_clips_large_gradients(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        clipper = GradientClipper(max_norm=1.0)

        def big_grad(tr):
            next(iter(tr.master.parameters())).grad[:] = 100.0

        # The big gradient must be written before the clipper runs.
        trainer.add_hook(once("after_backward", 2, big_grad))
        trainer.add_hook(clipper)
        trainer.train(4)
        assert 2 in [event.iteration for event in clipper.events]

    def test_cannot_protect_history_state(self, make_trainer):
        """The paper's argument against clipping as a mitigation: faults
        on mvar / history values bypass the gradient entirely."""
        from repro.nn.normalization import batchnorm_layers

        trainer = make_trainer(num_devices=2)
        clipper = GradientClipper(max_norm=1.0)
        trainer.add_hook(clipper)

        def corrupt_mvar(tr):
            batchnorm_layers(tr.replicas[0])[0].moving_var[:] = 1e20

        trainer.add_hook(once("after_step", 3, corrupt_mvar))
        trainer.train(6)
        # Clipping neither detected nor repaired the corruption.
        assert trainer.mvar_magnitude() >= 1e19

    def test_nonfinite_gradients_zeroed(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        clipper = GradientClipper(max_norm=5.0)

        def nan_grad(tr):
            next(iter(tr.master.parameters())).grad[:] = np.nan

        trainer.add_hook(once("after_backward", 1, nan_grad))
        trainer.add_hook(clipper)
        rec = trainer.train(4)
        assert rec.nonfinite_at is None  # NaN never reached the weights

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            GradientClipper(max_norm=0.0)


class TestCheckpointRecovery:
    """The Sec. 5.3 checkpoint-recovery baseline is the recovery ring at
    epoch cadence, ``RecoveryManager(every=epoch)``."""

    def test_recovery_cost_accounting(self, make_trainer):
        """13 iterations at ``every=5`` hold snapshots 0, 5, 10; a
        detection in the last one rewinds to 10 and re-executes 3,
        ending in the fault-free state."""
        trainer = make_trainer(num_devices=2)
        ring = RecoveryManager(every=5)
        trainer.add_hook(ring)
        trainer.train(13)
        detected_at = trainer.iteration - 1
        resume = ring.rewind(trainer, detected_at=detected_at)
        assert resume == trainer.iteration == 10
        assert detected_at + 1 - resume == 3
        assert trainer.record.recoveries == [10]
        trainer.train(3)
        clean = make_trainer(num_devices=2)
        clean.train(13)
        assert training_state_digest(trainer) == training_state_digest(clean)

    def test_no_checkpoint_raises(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        with pytest.raises(RecoveryError):
            RecoveryManager(every=100).rewind(trainer)
