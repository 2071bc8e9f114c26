"""Tests for :mod:`repro.backend`: one device-step program, one contract.

Three contracts are pinned here:

* **The reduction** — :meth:`ExecutionBackend.reduce_fused` is the
  central-server mean (ascending-rank sum, one multiply) written into
  the master gradient segment, which is also its rank-0 input, and the
  comm-fault hook sees the reduced buffer exactly once — under both
  backend names.
* **Lane step == solo loop** — training (fault-free, device faults, comm
  faults) produces byte-equal convergence records and final state under
  ``inprocess``, ``batched`` and the forced solo loop
  (``conftest.forced_solo``), including the paper-scale 8-replica
  topology, a D-sweep over the lane-native ``resnet*`` / ``yolo``
  workloads, and the benchmark harness's own campaign.
* **Lifecycle** — accumulators are allocated once, unknown backend
  names are rejected, and trainer state stays readable after ``close``.
"""

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.backend import BACKEND_NAMES
from repro.core.faults import (
    COMM,
    LINK_SITE,
    FaultInjector,
    HardwareFault,
    OpSite,
)
from repro.distributed import SyncDataParallelTrainer
from repro.observe import Tracer
from repro.replay import normalize_events
from repro.state import training_state_digest as state_digest
from repro.workloads import build_workload

RECORD_FIELDS = ("train_loss", "train_acc", "history_magnitude",
                 "mvar_magnitude", "test_acc")


def record_hex(record) -> dict[str, list]:
    """Bit-exact view of a convergence record's float traces."""
    return {
        field: [None if v is None else float(v).hex()
                for v in getattr(record, field)]
        for field in RECORD_FIELDS
    }


def make_trainer(workload="resnet", num_devices=2, backend="inprocess",
                 test_every=0, **kwargs) -> SyncDataParallelTrainer:
    spec = build_workload(workload, size="tiny", seed=0)
    return SyncDataParallelTrainer(spec, num_devices=num_devices, seed=0,
                                   test_every=test_every, backend=backend,
                                   **kwargs)


# ----------------------------------------------------------------------
# The reduction and its comm-fault site
# ----------------------------------------------------------------------
def _trainer_with_random_grads(backend, rng, num_devices=3):
    """A trainer whose per-device gradient segments hold random values,
    plus copies of them (``reduce_fused`` overwrites the master's)."""
    trainer = make_trainer(num_devices=num_devices, backend=backend)
    for arena in trainer.arenas:
        arena.grad[:] = rng.normal(size=arena.total).astype(np.float32)
    return trainer, [arena.grad.copy() for arena in trainer.arenas]


def _central_server_mean(grads) -> np.ndarray:
    acc = np.zeros(grads[0].size, dtype=np.float32)
    for g in grads:
        acc += g
    expected = np.empty_like(acc)
    np.multiply(acc, 1.0 / len(grads), out=expected)
    return expected


class TestAllReduceMeanProperty:
    def test_out_may_alias_rank_zero(self, rng):
        """The master gradient segment is both rank-0 input and the
        destination; aliasing must not perturb the result."""
        for backend in BACKEND_NAMES:
            trainer, grads = _trainer_with_random_grads(backend, rng)
            assert trainer.master_arena is trainer.arenas[0]
            trainer.backend.reduce_fused()
            assert (trainer.master_arena.grad.tobytes()
                    == _central_server_mean(grads).tobytes()), backend
            for arena, before in zip(trainer.arenas[1:], grads[1:]):
                assert arena.grad.tobytes() == before.tobytes(), backend
            trainer.close()

    def test_fault_hook_applied_once_to_reduced_buffer(self, rng):
        for backend in BACKEND_NAMES:
            trainer, grads = _trainer_with_random_grads(backend, rng, 2)
            calls = []

            def hook(reduced):
                calls.append(reduced.copy())
                faulty = reduced.copy()
                faulty[7] = np.float32(1e30)
                return faulty

            trainer.backend.set_comm_fault_hook(hook)
            trainer.backend.reduce_fused()
            out = trainer.master_arena.grad
            assert len(calls) == 1, backend
            assert calls[0].tobytes() == _central_server_mean(grads).tobytes()
            assert out[7] == np.float32(1e30)
            assert np.array_equal(np.delete(out, 7), np.delete(calls[0], 7))
            trainer.close()


# ----------------------------------------------------------------------
# Lane step == solo loop, under every name
# ----------------------------------------------------------------------
#: What a trainer can be asked for: the two backend names (both take the
#: lane step for a lane-native model) and the solo loop forced on the
#: default backend, which is the reference.
PATHS = (*BACKEND_NAMES, "forced-solo")


def _train(forced_solo, path, workload="resnet", num_devices=2, iterations=6,
           test_every=3, hook=None):
    solo = path == "forced-solo"
    with forced_solo(solo):
        trainer = make_trainer(workload, num_devices=num_devices,
                               backend="inprocess" if solo else path,
                               test_every=test_every, stop_on_nonfinite=False)
    assert trainer.backend.group.vectorized == (not solo)
    if hook is not None:
        trainer.add_hook(hook)
    with trainer:
        trainer.train(iterations)
    return trainer


class TestCrossBackendIdentity:
    def _train_all(self, forced_solo, hook_factory=None, **kwargs):
        results = {}
        for path in PATHS:
            hook = hook_factory() if hook_factory is not None else None
            results[path] = (_train(forced_solo, path, hook=hook, **kwargs), hook)
        return results

    @staticmethod
    def _assert_identical(results):
        solo, _ = results["forced-solo"]
        for name in BACKEND_NAMES:
            trainer, _ = results[name]
            assert record_hex(trainer.record) == record_hex(solo.record), name
            assert state_digest(trainer) == state_digest(solo), name

    def test_training_is_bit_identical(self, forced_solo):
        self._assert_identical(self._train_all(forced_solo))

    def test_eight_replica_topology_is_bit_identical(self, forced_solo):
        """The paper-scale topology: 8 replicas."""
        self._assert_identical(self._train_all(
            forced_solo, num_devices=8, iterations=3, test_every=0))

    def test_device_fault_is_bit_identical(self, forced_solo):
        """The injector armed on a lane replica must make the exact
        draws it makes on the solo loop."""
        def fault_hook():
            ff = FFDescriptor("global_control", group=1, has_feedback=True)
            fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                                  iteration=2, device=1, seed=3)
            return FaultInjector(fault)

        results = self._train_all(forced_solo, iterations=5, test_every=0,
                                  hook_factory=fault_hook)
        _, hook_solo = results["forced-solo"]
        for name in BACKEND_NAMES:
            _, hook = results[name]
            assert hook.fired and hook_solo.fired
            assert hook.record.num_faulty == hook_solo.record.num_faulty
            assert hook.record.max_abs_faulty() == hook_solo.record.max_abs_faulty()
        self._assert_identical(results)

    def test_comm_fault_is_bit_identical(self, forced_solo):
        """Link faults hit the identical point of the reduction after a
        lane step and after the solo loop (the in-flight mean,
        pre-optimizer)."""
        def fault_hook():
            ff = FFDescriptor("datapath", bit=30)
            fault = HardwareFault(ff=ff, site=OpSite(LINK_SITE, COMM),
                                  iteration=2, device=0, seed=7)
            return FaultInjector(fault)

        results = self._train_all(forced_solo, iterations=5, test_every=0,
                                  hook_factory=fault_hook)
        _, hook_solo = results["forced-solo"]
        for name in BACKEND_NAMES:
            _, hook = results[name]
            assert hook.fired and hook_solo.fired
            assert hook.record.num_faulty == hook_solo.record.num_faulty
        self._assert_identical(results)

    @pytest.mark.parametrize("devices", [1, 2, 4, 8])
    @pytest.mark.parametrize("workload",
                             ["resnet", "resnet_nobn", "resnet_sgd", "yolo"])
    def test_default_equals_forced_solo_at_every_device_count(
            self, forced_solo, workload, devices):
        """No threshold on D selects the lane step, so it must equal the
        solo loop from one lane up."""
        default, solo = (
            _train(forced_solo, path, workload, num_devices=devices,
                   iterations=3, test_every=2)
            for path in ("inprocess", "forced-solo"))
        assert record_hex(default.record) == record_hex(solo.record)
        assert state_digest(default) == state_digest(solo)

    def test_harness_campaign_equals_forced_solo(self, forced_solo):
        """``benchmarks/perf``'s ``campaign_inprocess`` configuration,
        default vs forced-solo from the warm-up on: same final arena
        bytes, outcome and canonical event stream per experiment."""
        from repro.core.faults import Campaign

        def run():
            campaign = Campaign(
                build_workload("resnet", size="tiny"), num_devices=8,
                warmup_iterations=8, horizon=16, inject_window=6,
                test_every=8, detect=True)
            stories = []
            for seed in (1, 2):
                for fault in campaign.sample_faults(4, seed=seed):
                    tracer = Tracer()
                    result = campaign.run_experiment(fault, tracer=tracer)
                    stories.append((result.arena_sha256, result.outcome,
                                    normalize_events(tracer.events())))
            return stories

        default = run()
        with forced_solo():
            solo = run()
        assert all(sha and events for sha, _outcome, events in default)
        assert default == solo

    def test_unknown_backend_name_rejected(self):
        spec = build_workload("resnet", size="tiny", seed=0)
        with pytest.raises(ValueError, match="unknown execution backend"):
            SyncDataParallelTrainer(spec, num_devices=2, backend="gpu")


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestPreallocatedBuffers:
    def test_inprocess_accumulator_is_reused(self):
        trainer = make_trainer()
        buf = trainer.backend._grad_accum
        assert buf is not None
        trainer.train(2)
        assert trainer.backend._grad_accum is buf


class TestLifecycle:
    def test_trainer_state_remains_readable_after_close(self):
        for backend in BACKEND_NAMES:
            trainer = make_trainer(backend=backend)
            trainer.train(2)
            trainer.close()
            digest = state_digest(trainer)
            trainer.close()  # idempotent
            assert state_digest(trainer) == digest
            assert np.isfinite(trainer.master_arena.param).all()
