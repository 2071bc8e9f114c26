"""Tests for op-site enumeration, fault sampling, and the injector."""

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import (
    COMM,
    FORWARD,
    LINK_SITE,
    WEIGHT_UPDATE,
    FaultInjector,
    HardwareFault,
    OpSite,
    enumerate_sites,
    sample_fault,
)
from repro.core.mitigation import RecoveryManager
from repro.observe import FAULT_INJECTED, Tracer
from repro.workloads import build_workload


class TestEnumerateSites:
    def test_resnet_sites(self, tiny_resnet_spec):
        model = tiny_resnet_spec.build_model(0)
        sites = enumerate_sites(model)
        names = {(s.module_name, s.kind) for s in sites}
        assert ("0.0", "forward") in names          # stem conv
        assert ("1.conv1", "weight_grad") in names  # residual conv
        assert ("1.bn1", "forward") in names        # BatchNorm
        assert ("4", "input_grad") in names         # classifier Dense

    def test_backward_pass_flag(self):
        assert not OpSite("x", "forward").in_backward_pass
        assert OpSite("x", "weight_grad").in_backward_pass
        assert OpSite("x", "input_grad").in_backward_pass

    def test_embedding_has_no_input_grad_site(self):
        spec = build_workload("transformer", size="tiny", seed=0)
        sites = enumerate_sites(spec.build_model(0))
        emb_sites = [s for s in sites if s.module_name == "0"]
        kinds = {s.kind for s in emb_sites}
        assert kinds == {"forward", "weight_grad"}

    def test_kind_filter(self, tiny_resnet_spec):
        model = tiny_resnet_spec.build_model(0)
        sites = enumerate_sites(model, kinds=("forward",))
        assert all(s.kind == "forward" for s in sites)

    def test_no_sites_raises(self, rng):
        from repro import nn

        with pytest.raises(ValueError):
            enumerate_sites(nn.Sequential(nn.ReLU()))


class TestSampleFault:
    def test_ranges(self, tiny_resnet_spec, rng):
        model = tiny_resnet_spec.build_model(0)
        for _ in range(50):
            fault = sample_fault(model, rng, max_iteration=10, num_devices=4)
            assert 0 <= fault.iteration < 10
            assert 0 <= fault.device < 4
            assert fault.ff.category in ("datapath", "local_control", "global_control")

    def test_describe(self, tiny_resnet_spec, rng):
        model = tiny_resnet_spec.build_model(0)
        fault = sample_fault(model, rng, max_iteration=5, num_devices=2)
        desc = fault.describe()
        assert "site" in desc and "ff_category" in desc


class TestFaultInjector:
    def _fault(self, iteration=2, device=1, seed=3, site=None):
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        return HardwareFault(
            ff=ff,
            site=site or OpSite("1.conv1", "weight_grad"),
            iteration=iteration, device=device, seed=seed,
        )

    def test_fires_once_at_target_iteration(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(iteration=2))
        trainer.add_hook(injector)
        trainer.train(5)
        assert injector.fired
        assert injector.record is not None
        assert injector.record.model == "group1"

    def test_does_not_fire_before_iteration(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(iteration=4))
        trainer.add_hook(injector)
        trainer.train(3)
        assert not injector.fired

    def test_hook_disarmed_after_iteration(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(iteration=1))
        trainer.add_hook(injector)
        trainer.train(4)
        module = dict(trainer.replicas[1].named_modules())["1.conv1"]
        assert module._fault_hooks["weight_grad"] is None

    def test_targets_correct_device_only(self, make_trainer):
        """The fault perturbs only the chosen device's gradient stream."""
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(iteration=1, device=1, seed=3))
        trainer.add_hook(injector)
        # After the faulty iteration the averaged gradient includes the
        # huge faulty contribution diluted by 1/num_devices.
        trainer.train(2)
        assert injector.fired
        assert injector.record.max_abs_faulty() > 1e6

    def test_invalid_device(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(device=5))
        trainer.add_hook(injector)
        with pytest.raises(ValueError):
            trainer.train(3)

    def test_unknown_site(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        injector = FaultInjector(self._fault(site=OpSite("nope", "forward")))
        trainer.add_hook(injector)
        with pytest.raises(KeyError):
            trainer.train(3)


class TestWeightUpdateFault:
    def test_perturbs_weight_update(self, make_trainer):
        trainer = make_trainer(num_devices=2, workload="resnet_sgd")
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        fault = HardwareFault(ff=ff, site=OpSite("optimizer", "weight_update"),
                              iteration=2, device=0, seed=11)
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(4)
        assert injector.fired
        assert injector.record is not None

    def test_hook_removed_after_iteration(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        ff = FFDescriptor("global_control", group=2, has_feedback=False)
        fault = HardwareFault(ff=ff, site=OpSite("optimizer", "weight_update"),
                              iteration=1, device=0, seed=0)
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(3)
        assert trainer.optimizer._update_hook is None


class _RewindOnce:
    """Trainer hook: snapshots every iteration and, once, at iteration
    ``at``, rewinds so the two most recent iterations re-execute."""

    def __init__(self, at: int):
        self.at = at
        self.recovery = RecoveryManager()

    def before_iteration(self, trainer, iteration):
        self.recovery.before_iteration(trainer, iteration)

    def after_iteration(self, trainer, iteration, loss, acc):
        if iteration == self.at and not self.recovery.recoveries:
            resume = self.recovery.rewind(trainer, detected_at=iteration)
            trainer.iteration = resume - 1
            trainer.signal_recovered()


@pytest.mark.parametrize("site", [OpSite("1.conv1", FORWARD),
                                  OpSite(LINK_SITE, COMM),
                                  OpSite("optimizer", WEIGHT_UPDATE)],
                         ids=lambda site: site.kind)
def test_one_fault_injected_event_across_a_rewind(make_trainer, site):
    """The fault iteration re-executes after a rewind; the transient
    fault does not recur, and it is reported once, whatever the hook
    point."""
    tracer = Tracer()
    trainer = make_trainer(num_devices=2, tracer=tracer, stop_on_nonfinite=False)
    fault = HardwareFault(ff=FFDescriptor("datapath", bit=3), site=site,
                          iteration=5, device=1, seed=3)
    injector = FaultInjector(fault)
    trainer.add_hook(injector)
    trainer.add_hook(_RewindOnce(at=6))
    trainer.train(9)
    assert trainer.record.recoveries == [5]
    assert injector.fired
    assert len(tracer.events(FAULT_INJECTED)) == 1
