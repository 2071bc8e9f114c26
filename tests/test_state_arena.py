"""Tests for the fused training-state layer (repro.state)."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, AdamW, RMSProp
from repro.optim.base import max_abs
from repro.distributed import SyncDataParallelTrainer
from repro.state import ArenaLayoutError, StateArena, build_arenas
from repro.training.checkpoints import Checkpoint
from repro.workloads import build_workload


def build_model(seed: int = 0) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Dense(6, 10, rng),
        nn.BatchNorm(10),
        nn.ReLU(),
        nn.Dense(10, 4, rng),
    )


class TestLayout:
    def test_index_covers_all_parameters(self):
        model = build_model()
        arena = StateArena(model)
        assert set(arena.names()) == {n for n, _ in model.named_parameters()}
        assert arena.total == model.num_parameters()

    def test_offsets_are_contiguous(self):
        arena = StateArena(build_model())
        offset = 0
        for name in arena.names():
            entry = arena.entry(name)
            assert entry.offset == offset
            assert entry.size == int(np.prod(entry.shape)) if entry.shape else 1
            offset += entry.size
        assert offset == arena.total

    def test_rebinding_preserves_values(self):
        model = build_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        arena = StateArena(model)
        for name, param in model.named_parameters():
            assert np.array_equal(param.data, before[name])
            assert param.data.base is arena.param or param.data is arena.param

    def test_views_alias_the_buffer(self):
        model = build_model()
        arena = StateArena(model)
        arena.param.fill(7.0)
        for param in model.parameters():
            assert np.all(param.data == 7.0)

    def test_grad_accumulation_lands_in_buffer(self, rng):
        model = build_model()
        arena = StateArena(model)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        loss = nn.SoftmaxCrossEntropy()
        loss.forward(model.forward(x), np.zeros(8, dtype=np.int64))
        arena.grad.fill(0.0)
        model.backward(loss.backward())
        total = sum(float(np.sum(np.abs(p.grad))) for p in model.parameters())
        assert float(np.sum(np.abs(arena.grad))) == pytest.approx(total)
        assert float(np.sum(np.abs(arena.grad))) > 0

    def test_unknown_name_raises(self):
        arena = StateArena(build_model())
        with pytest.raises(KeyError):
            arena.entry("nope.weight")
        with pytest.raises(KeyError):
            arena.index_of("nope.weight")

    def test_owner_module(self):
        assert StateArena.owner_module("0.conv1.weight") == "0.conv1"

    def test_resolve(self):
        arena = StateArena(build_model())
        assert arena.resolve("0.weight") == ("0", "weight")

    def test_tied_parameters_rejected(self):
        class Tied(nn.Module):
            def __init__(self):
                super().__init__()
                param = Parameter(np.zeros((2, 2), dtype=np.float32))
                self._params["a"] = param
                self._params["b"] = param

        with pytest.raises(ArenaLayoutError):
            StateArena(Tied())
        with pytest.raises(ArenaLayoutError, match="'b'.*tied weights"):
            build_arenas([Tied()])
        # A trainer over such a model fails at construction: there is no
        # arena-less trainer for it to become.
        spec = dataclasses.replace(build_workload("resnet", size="tiny"),
                                   model_fn=lambda seed: Tied())
        with pytest.raises(ArenaLayoutError, match="'b'.*tied weights"):
            SyncDataParallelTrainer(spec, num_devices=2)

    def test_replicas_with_different_layouts_rejected(self):
        wider = nn.Sequential(nn.Dense(6, 12, np.random.default_rng(0)))
        with pytest.raises(ArenaLayoutError, match="replica 1.*'0.weight'"):
            build_arenas([nn.Sequential(nn.Dense(6, 10, np.random.default_rng(0))),
                          wider])

    def test_empty_model_rejected(self):
        with pytest.raises(ArenaLayoutError):
            StateArena(nn.ReLU())


def _clone_params(model):
    return [Parameter(p.data.copy(), name=p.name) for p in model.parameters()]


def _random_grads(params, rng, scale=1.0):
    return [
        (rng.normal(size=p.data.shape) * scale).astype(np.float32) for p in params
    ]


def reference_step(opt, params, slots, t):
    """Step ``t`` of ``opt``'s rule, one parameter at a time over
    per-parameter ``slots`` lists — the optimizers' own step bodies from
    before their state lived only in an arena, kept here as the oracle
    for the fused step (DESIGN.md decision 13)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, param in enumerate(params):
            g = param.grad
            if isinstance(opt, SGD):
                if opt.momentum > 0.0:
                    vel = slots["velocity"]
                    vel[i] = (opt.momentum * vel[i] + g).astype(np.float32)
                    update = opt.lr * vel[i]
                else:
                    update = opt.lr * g
                update = update.astype(np.float32)
            elif isinstance(opt, Adam):
                m, v = slots["m"], slots["v"]
                m[i] = (opt.beta1 * m[i] + (1.0 - opt.beta1) * g).astype(np.float32)
                v[i] = (opt.beta2 * v[i] + (1.0 - opt.beta2) * g * g).astype(np.float32)
                m_hat = m[i] / (1.0 - opt.beta1**t)
                v_hat = v[i] / (1.0 - opt.beta2**t)
                update = (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(np.float32)
                if isinstance(opt, AdamW):
                    update = (update + opt.lr * opt.weight_decay * param.data
                              ).astype(np.float32)
            else:
                sq = slots["sq"]
                sq[i] = (opt.rho * sq[i] + (1.0 - opt.rho) * g * g).astype(np.float32)
                update = (opt.lr * g / (np.sqrt(sq[i]) + opt.eps)).astype(np.float32)
            np.subtract(param.data, update, out=param.data, casting="unsafe")


@pytest.mark.parametrize(
    "make_optimizer",
    [
        lambda ps: SGD(ps, lr=0.05),
        lambda ps: SGD(ps, lr=0.05, momentum=0.9),
        lambda ps: Adam(ps, lr=3e-3),
        lambda ps: AdamW(ps, lr=3e-3, weight_decay=0.02),
        lambda ps: RMSProp(ps, lr=1e-3),
    ],
    ids=["sgd", "sgd-momentum", "adam", "adamw", "rmsprop"],
)
class TestFusedStepBitIdentical:
    """The fused optimizer step must be bit-identical to the
    per-parameter reference — including under overflowed (faulty)
    gradient magnitudes."""

    def run_both(self, make_optimizer, grad_scale):
        rng = np.random.default_rng(3)
        model = build_model(0)
        scattered_params = _clone_params(model)
        reference = make_optimizer(scattered_params)
        slots = {name: [np.zeros_like(p.data) for p in scattered_params]
                 for name in reference.SLOTS}
        arena = StateArena(model)
        fused = make_optimizer(list(model.parameters()))
        fused.bind_arena(arena)
        for step in range(5):
            grads = _random_grads(scattered_params, rng, scale=grad_scale)
            for p_s, p_f, g in zip(scattered_params, model.parameters(), grads):
                p_s.grad[...] = g
                p_f.grad[...] = g
            reference_step(reference, scattered_params, slots, step + 1)
            fused.step()
            for p_s, p_f in zip(scattered_params, model.parameters()):
                assert np.array_equal(p_s.data, p_f.data, equal_nan=True), (
                    f"divergence at step {step}"
                )
        assert set(fused.slots) == set(slots)
        for name, arrays in slots.items():
            assert np.array_equal(
                np.concatenate([a.ravel() for a in arrays]), fused.slots[name],
                equal_nan=True)
        assert max_abs([a for arrays in slots.values() for a in arrays]) \
            == fused.history_magnitude()

    def test_normal_gradients(self, make_optimizer):
        self.run_both(make_optimizer, grad_scale=1.0)

    def test_faulty_gradients_overflow(self, make_optimizer):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.run_both(make_optimizer, grad_scale=1e30)


class TestFusedOptimizerPlumbing:
    def test_slot_lists_are_views(self):
        model = build_model()
        arena = StateArena(model)
        opt = Adam(list(model.parameters()), lr=1e-3)
        opt.bind_arena(arena)
        assert opt.slots["m"] is arena.segments["opt.m"]
        opt.slots["m"].fill(3.0)
        assert all(np.all(m == 3.0) for m in opt.first_moment_arrays())

    def test_bind_requires_matching_params(self):
        model = build_model()
        arena = StateArena(model)
        other = build_model(1)
        opt = Adam(list(other.parameters()), lr=1e-3)
        with pytest.raises(ValueError):
            opt.bind_arena(arena)

    def test_update_hook_still_fires_per_parameter(self):
        model = build_model()
        arena = StateArena(model)
        opt = SGD(list(model.parameters()), lr=0.1)
        opt.bind_arena(arena)
        seen = []
        opt.set_update_hook(lambda u, info: seen.append(info["index"]) or u)
        for p in model.parameters():
            p.grad[...] = 1.0
        opt.step()
        assert seen == list(range(len(opt.params)))


class TestTrainerArena:
    def test_trainer_builds_arenas(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        assert trainer.arenas is not None
        assert len(trainer.arenas) == 2
        assert trainer.optimizer.arena is trainer.master_arena

    def test_broadcast_is_fused_copy(self, make_trainer):
        trainer = make_trainer(num_devices=3)
        trainer.train(2)
        for arena in trainer.arenas[1:]:
            assert np.array_equal(arena.param, trainer.master_arena.param)

    def test_fused_checkpoint_round_trip(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        trainer.train(3)
        ckpt = Checkpoint.capture(trainer)
        before = trainer.master_arena.param.copy()
        trainer.train(3)
        ckpt.restore(trainer)
        assert trainer.iteration == 3
        assert np.array_equal(trainer.master_arena.param, before)

    def test_fused_and_scattered_checkpoints_agree(self, make_trainer):
        """The fused capture against a per-array walk of the same trainer
        (the oracle): ``state_dict()`` per replica, the optimizer's
        per-parameter slot views."""
        trainer = make_trainer(num_devices=2)
        trainer.train(3)
        fused = Checkpoint.capture(trainer)

        def views(buf):
            return dict(zip(fused.layout, trainer.optimizer.index_views(buf)))

        oracle_bytes = 0
        for d, replica in enumerate(trainer.replicas):
            f_state = {f"param:{name}": view
                       for name, view in views(fused.param_bufs[d]).items()}
            for mod_name, state in fused.extra[d]:
                for key, value in state.items():
                    f_state[f"state:{mod_name}:{key}"] = value
            s_state = replica.state_dict()
            assert set(f_state) == set(s_state)
            for key in f_state:
                assert np.array_equal(f_state[key], s_state[key]), key
            oracle_bytes += sum(v.nbytes for v in s_state.values())
        optimizer = trainer.optimizer
        assert set(fused.opt_slots) == set(optimizer.SLOTS) == {"m", "v"}
        assert fused.opt_iteration == optimizer.iteration
        assert fused.opt_lr == optimizer.lr
        for key, buf in fused.opt_slots.items():
            s_opt = trainer.master_arena.views(f"opt.{key}")
            for f_arr, s_arr in zip(views(buf).values(), s_opt, strict=True):
                assert np.array_equal(f_arr, s_arr)
            oracle_bytes += sum(arr.nbytes for arr in s_opt)
        assert fused.nbytes() == oracle_bytes

    def test_fused_checkpoint_restores_into_fresh_trainer(self, make_trainer):
        donor = make_trainer(num_devices=2)
        donor.train(4)
        ckpt = Checkpoint.capture(donor)
        fresh = make_trainer(num_devices=2, seed=9)
        ckpt.restore(fresh)
        assert fresh.iteration == 4
        assert np.array_equal(fresh.master_arena.param, donor.master_arena.param)
        assert fresh.optimizer.iteration == donor.optimizer.iteration

    def test_restore_into_another_layout_raises(self, make_trainer):
        ckpt = Checkpoint.capture(make_trainer(num_devices=2))
        with pytest.raises(ValueError, match="lay their state out differently"):
            ckpt.restore(make_trainer(workload="densenet", num_devices=2))
        with pytest.raises(ValueError, match="replicas"):
            ckpt.restore(make_trainer(num_devices=3))

    def test_restore_into_other_slot_names_raises(self, make_trainer):
        donor = make_trainer(num_devices=2)
        ckpt = Checkpoint.capture(donor)
        spec = dataclasses.replace(
            donor.spec, optimizer_fn=lambda params: RMSProp(params, lr=0.01))
        other = SyncDataParallelTrainer(spec, num_devices=2)
        assert set(other.optimizer.slots) != set(ckpt.opt_slots)
        before = other.master_arena.param.copy()
        with pytest.raises(ValueError, match="optimizer slots"):
            ckpt.restore(other)
        # Rejected before anything was written.
        assert np.array_equal(other.master_arena.param, before)


class TestArenaNameInjection:
    def test_injector_resolves_arena_name(self, make_trainer):
        from repro.accelerator.ffs import FFInventory
        from repro.core.faults.hardware import HardwareFault, OpSite
        from repro.core.faults.injector import FaultInjector

        trainer = make_trainer(num_devices=2)
        param_name = trainer.master_arena.names()[0]
        ff = FFInventory().sample(np.random.default_rng(0))
        fault = HardwareFault(
            ff=ff, site=OpSite(param_name, "weight_grad"),
            iteration=1, device=1, seed=3,
        )
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(3)
        assert injector.fired
        assert injector.record is not None

    def test_update_injector_targets_named_parameter(self, make_trainer):
        from repro.accelerator.ffs import FFInventory
        from repro.core.faults.hardware import HardwareFault, OpSite
        from repro.core.faults.injector import FaultInjector

        clean, trainer = make_trainer(num_devices=2), make_trainer(num_devices=2)
        param_name = trainer.master_arena.names()[2]
        ff = FFInventory().sample(np.random.default_rng(0))
        fault = HardwareFault(
            ff=ff, site=OpSite(param_name, "weight_update"),
            iteration=1, device=0, seed=3,
        )
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(2)
        clean.train(2)
        assert injector.fired
        # The fault iteration's update is the last step: only the named
        # parameter differs from the clean run.
        changed = [name for name in trainer.master_arena.names()
                   if not np.array_equal(trainer.master_arena.view("param", name),
                                         clean.master_arena.view("param", name))]
        assert changed == [param_name]

    def test_unknown_site_still_raises(self, make_trainer):
        from repro.accelerator.ffs import FFInventory
        from repro.core.faults.hardware import HardwareFault, OpSite
        from repro.core.faults.injector import FaultInjector

        trainer = make_trainer(num_devices=2)
        ff = FFInventory().sample(np.random.default_rng(0))
        fault = HardwareFault(
            ff=ff, site=OpSite("no.such.site", "forward"),
            iteration=0, device=0, seed=3,
        )
        trainer.add_hook(FaultInjector(fault))
        with pytest.raises(KeyError):
            trainer.train(1)
