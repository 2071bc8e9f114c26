"""A campaign builds its trainers once and steps only what a fault
changed (DESIGN.md decisions 9 and 25).

* Every experiment runs on a trainer the campaign keeps: the reference
  run's own, or one pool on one LaneGroup for batches.  What a run
  leaves behind that a rung restore does not put back is reset, and a
  trainer whose experiment raised is never used again.
* At its fault iteration an experiment started on rung ``t`` computes
  only the fault's device and takes every other device's share — its
  gradient row, BatchNorm statistics and ``(loss, acc)`` — from the
  reference run.
* A backward whose input gradient nobody reads computes none at the
  model's first layer, unless an ``input_grad`` fault is armed there.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import Campaign, InferenceCampaign
from repro.core.faults.hardware import (
    COMM,
    INPUT_GRAD,
    WEIGHT_UPDATE,
    HardwareFault,
    OpSite,
    enumerate_sites,
)
from repro.core.faults.injector import FaultInjector
from repro.core.faults.serialization import experiment_to_dict
from repro.distributed import SyncDataParallelTrainer
from repro.nn import conv as conv_module
from repro.nn.module import HOOK_KINDS, input_layer
from repro.observe import Tracer
from repro.replay.record import normalize_events
from repro.training.checkpoints import Checkpoint
from repro.workloads import build_workload

#: ``benchmarks/perf``'s campaign configuration.
HARNESS = dict(num_devices=8, warmup_iterations=8, horizon=16,
               inject_window=6, test_every=8, detect=True)
#: Test points inside the injection window (3..6), two devices.
SMALL = dict(num_devices=2, warmup_iterations=3, horizon=9, inject_window=4,
             test_every=2, detect=True)
KINDS = ("forward", "weight_grad", "input_grad", "comm")
CONTROL = FFDescriptor("global_control", group=1, has_feedback=True)


def _campaign(config=SMALL, **kwargs) -> Campaign:
    campaign = Campaign(build_workload("resnet", size="tiny"), **config,
                        site_kinds=KINDS, **kwargs)
    campaign.prepare()
    return campaign


def _faults(campaign: Campaign) -> list[HardwareFault]:
    """Sampled faults on several devices and iterations, plus a weight
    update fault and a large input-gradient fault at the stem."""
    faults = campaign.sample_faults(4, seed=3)
    stem = enumerate_sites(campaign._site_model)[0].module_name
    warm = campaign.warmup_iterations
    return faults + [
        HardwareFault(ff=CONTROL, site=OpSite("0.0.weight", WEIGHT_UPDATE),
                      iteration=warm + 1, device=0, seed=5),
        HardwareFault(ff=CONTROL, site=OpSite(stem, INPUT_GRAD),
                      iteration=warm + 1, device=campaign.num_devices - 1,
                      seed=6),
    ]


def _story(campaign: Campaign, fault: HardwareFault) -> tuple:
    """Payload (with its arena digest) and canonical event stream."""
    tracer = Tracer()
    result = campaign.run_experiment(fault, tracer=tracer)
    return experiment_to_dict(result), normalize_events(tracer.events())


def _armed(trainer: SyncDataParallelTrainer) -> list[str]:
    """Every fault hook slot armed anywhere on ``trainer``."""
    armed = [f"{device}:{path}:{kind}"
             for device, replica in enumerate(trainer.replicas)
             for path, module in replica.named_modules()
             for kind in HOOK_KINDS if module._fault_hooks[kind] is not None]
    if trainer.backend._comm_fault_hook is not None:
        armed.append("comm")
    if trainer.optimizer._update_hook is not None:
        armed.append("weight_update")
    return armed


# ----------------------------------------------------------------------
# One trainer per campaign
# ----------------------------------------------------------------------
def test_experiment_order_changes_nothing():
    """[A, B, C, ...] and its reverse on one campaign: each fault's
    payload, digest and event stream are the same, so no experiment sees
    what an earlier one left on the shared trainer."""
    campaign = _campaign()
    faults = _faults(campaign)
    forward = [_story(campaign, fault) for fault in faults]
    backward = [_story(campaign, fault) for fault in reversed(faults)]
    assert forward == backward[::-1]
    assert len({payload["arena_sha256"] for payload, _ in forward}) > 1
    assert all(events for _, events in forward)


def test_batches_in_either_order_equal_solo_runs():
    """The same with a pool: a batch and its reverse give each fault the
    payload it gets alone on a fresh campaign."""
    campaign = _campaign(backend="batched", experiment_batch=3)
    faults = _faults(campaign)[:3]
    forward = campaign.run_experiment_batch(faults)
    backward = campaign.run_experiment_batch(faults[::-1])[::-1]
    fresh = _campaign()
    alone = [fresh.run_experiment(fault) for fault in faults]
    assert [experiment_to_dict(r) for r in forward] == \
        [experiment_to_dict(r) for r in backward] == \
        [experiment_to_dict(r) for r in alone]


def test_n_experiments_build_one_trainer_per_runner(monkeypatch):
    built = []
    original = SyncDataParallelTrainer.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SyncDataParallelTrainer, "__init__", counted)
    campaign = Campaign(build_workload("resnet", size="tiny"), **SMALL)
    campaign.run(5, seed=1)
    campaign.run(3, seed=2)
    assert len(built) == 1  # the reference run's, which every run reuses

    batched = Campaign(build_workload("resnet", size="tiny"), **SMALL,
                       backend="batched", experiment_batch=2)
    built.clear()
    batched.run(5, seed=1)
    assert len(built) == 1 + 2  # reference run, then one pool of two


def test_an_experiment_that_raises_leaves_nothing_behind(monkeypatch):
    """A fault model that raises mid-iteration, after its hook was armed:
    the next experiment gets a trainer with no armed hook and an empty
    record, and the result a fresh campaign gives."""
    campaign = _campaign()
    faults = _faults(campaign)
    victim = faults[-1]  # the stem input-gradient fault
    before = campaign._trainers[0]

    class Boom(RuntimeError):
        pass

    def explode(self, tensor, module=None):
        self.fired = True
        raise Boom

    with monkeypatch.context() as patch:
        patch.setattr(FaultInjector, "apply", explode)
        with pytest.raises(Boom):
            campaign.run_experiment(victim)
    assert _armed(before)  # what the failure left armed ...
    story = _story(campaign, faults[0])
    (after,) = campaign._trainers
    assert after is not before  # ... is on a trainer nobody uses again
    assert _armed(after) == []
    assert after.record.iterations[0] == campaign.warmup_iterations
    assert story == _story(_campaign(), faults[0])


# ----------------------------------------------------------------------
# The fault iteration steps only the fault's device
# ----------------------------------------------------------------------
def _step(trainer, checkpoint, fault, given=None) -> dict:
    """Iteration ``fault.iteration`` from ``checkpoint`` with the fault
    armed; everything a step leaves per device."""
    checkpoint.restore(trainer)
    trainer.reset_run(eval_device=fault.device)
    trainer.add_hook(FaultInjector(fault))
    trainer.backend.given = dict(given or {})
    trainer.backend.kept = kept = []
    record = trainer.train(1)
    trainer.backend.kept = None
    assert _armed(trainer) == []
    return {
        "loss_acc": (record.train_loss[0].hex(), record.train_acc[0].hex()),
        "shares": [(share.grad.tobytes(), share.loss.hex(), share.acc.hex())
                   for share in kept[0]],
        "bn": [[{k: v.tobytes() for k, v in state.items()}
                for _, state in replica]
               for replica in Checkpoint.capture(trainer).extra],
        "params": trainer.master_arena.param.tobytes(),
    }


@pytest.mark.parametrize("solo", [False, True], ids=["lanes", "solo"])
@pytest.mark.parametrize("devices", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["forward", "weight_grad", "input_grad",
                                  COMM, WEIGHT_UPDATE])
def test_subset_step_equals_full_step(forced_solo, solo, devices, kind):
    """Per device, the step that computes only what the fault can change
    and takes the rest from a fault-free step's shares leaves the grad
    rows, BatchNorm statistics, ``(loss, acc)`` floats and updated
    weights the full step leaves."""
    spec = build_workload("resnet", size="tiny")
    with forced_solo(solo):
        trainer = SyncDataParallelTrainer(spec, num_devices=devices)
    assert trainer.backend.group.vectorized is not solo
    trainer.train(3)
    checkpoint = Checkpoint.capture(trainer)
    site = "0.0.weight" if kind == WEIGHT_UPDATE else "1.conv2"
    fault = HardwareFault(ff=CONTROL, site=OpSite(site, kind), iteration=3,
                          device=devices - 1, seed=11)
    # Fault-free shares, their BatchNorm statistics the step's own.
    checkpoint.restore(trainer)
    trainer.backend.kept = clean = []
    trainer.run_iteration(3)
    extra = Checkpoint.capture(trainer).extra
    shares = [share._replace(extra=extra[d]) for d, share in enumerate(clean[0])]
    stepped = () if kind in (COMM, WEIGHT_UPDATE) else (fault.device,)
    given = {d: share for d, share in enumerate(shares) if d not in stepped}

    full = _step(trainer, checkpoint, fault)
    subset = _step(trainer, checkpoint, fault, given)
    assert subset == full
    assert trainer.backend.given == {}  # one step only
    if kind in HOOK_KINDS:  # the fault did move its device's share
        assert full["shares"][fault.device] != \
            (shares[fault.device].grad.tobytes(),
             shares[fault.device].loss.hex(), shares[fault.device].acc.hex())


def test_fault_iteration_computes_one_lane(monkeypatch, full_horizon):
    """On the harness configuration the step of the fault iteration
    binds one lane (an op-site fault) or none (a weight update fault);
    every later step binds all eight, and so does every step of the
    full-horizon path, even from the fault's own rung."""
    campaign = _campaign(HARNESS)
    lanes: list[int] = []
    program = campaign._trainers[0].backend.group._program
    original = type(program).bind

    def bind(self, lane_modules, params, training):
        if training:
            lanes.append(len(lane_modules))
        return original(self, lane_modules, params, training)

    monkeypatch.setattr(type(program), "bind", bind)
    steps = []
    update = SyncDataParallelTrainer.apply_update
    monkeypatch.setattr(SyncDataParallelTrainer, "apply_update",
                        lambda self, t: steps.append(t) or update(self, t))
    fault = campaign.sample_faults(1, seed=4)[0]
    assert fault.site.kind in ("forward", "weight_grad", "input_grad")
    campaign.run_experiment(fault)
    assert lanes == [1] + [8] * (len(steps) - 1)
    lanes.clear()
    steps.clear()
    campaign.run_experiment(HardwareFault(
        ff=CONTROL, site=OpSite("0.0.weight", WEIGHT_UPDATE),
        iteration=fault.iteration, device=3, seed=5))
    assert steps[0] == fault.iteration
    assert lanes == [8] * (len(steps) - 1)
    lanes.clear()
    steps.clear()
    with full_horizon():
        campaign.run_experiment(replace(fault, iteration=campaign.warmup_iterations))
    assert lanes == [8] * len(steps) and steps


# ----------------------------------------------------------------------
# No input gradient at the first layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solo", [False, True], ids=["lanes", "solo"])
def test_first_layer_input_gradient_only_when_its_hook_is_armed(
        forced_solo, monkeypatch, solo):
    spec = build_workload("resnet", size="tiny")
    with forced_solo(solo):
        trainer = SyncDataParallelTrainer(spec, num_devices=2)
    stem = input_layer(trainer.master)
    assert stem is trainer.master.layers[0].layers[0]
    folds: list[tuple] = []
    original = conv_module.col2im

    def counted(col, input_shape, *args):
        folds.append(input_shape)
        return original(col, input_shape, *args)

    monkeypatch.setattr(conv_module, "col2im", counted)

    def stem_folds() -> int:
        return sum(shape[1] == stem.in_channels for shape in folds)

    trainer.train(2)
    assert stem_folds() == 0 and folds
    injector = FaultInjector(HardwareFault(
        ff=CONTROL, site=OpSite("0.0", INPUT_GRAD), iteration=2, device=1,
        seed=3))
    trainer.add_hook(injector)
    trainer.train(2)
    assert stem_folds() == 1  # iteration 2, device 1's lane only
    assert injector.fired and injector.record.num_faulty > 0
    # Another device's hook elsewhere computes no stem input gradient.
    trainer.hooks.clear()
    other = FaultInjector(replace(injector.fault, site=OpSite("1.conv1", INPUT_GRAD),
                                  iteration=4))
    trainer.add_hook(other)
    trainer.train(1)
    assert stem_folds() == 1 and other.fired
    assert all(module.wants_input_grad for module in stem.modules())


# ----------------------------------------------------------------------
# The inference golden pass
# ----------------------------------------------------------------------
def test_inference_runs_share_one_golden_pass(monkeypatch, tmp_path):
    """Two ``run()`` calls over one batch make one golden pass, and give
    the outcomes a campaign that takes it for each run gives."""
    def campaign() -> InferenceCampaign:
        return InferenceCampaign(build_workload("resnet", size="tiny"),
                                 train_iterations=4, num_devices=2)

    cached = campaign()
    passes = []
    original = InferenceCampaign._golden_pass

    def counted(self, inputs):
        passes.append(len(inputs))
        original(self, inputs)

    monkeypatch.setattr(InferenceCampaign, "_golden_pass", counted)
    first = cached.run(120, seed=1, batch=16)
    second = cached.run(120, seed=2, batch=16)
    assert passes == [16]
    cached.run(10, seed=3, batch=8)
    assert passes == [16, 8]

    fresh = campaign()
    assert first == fresh.run(120, seed=1, batch=16)
    fresh = campaign()
    assert second == fresh.run(120, seed=2, batch=16)
    assert first != second
