"""Fault injection engine: attaches a software fault to one op site of
one device's replica at one training iteration.

The injector is a trainer hook (see
:class:`repro.distributed.sync.SyncDataParallelTrainer`): it arms the
target module's fault hook at the start of the chosen iteration, the hook
fires exactly once (first matching op execution on the chosen device),
and everything is disarmed at the end of the iteration.  The resulting
:class:`~repro.core.faults.software_models.FaultRecord` is kept for
analysis (faulty element counts/positions/values — Table 4's ranges).

Stable arena addressing
-----------------------
Injection targets can be named two ways:

* by qualified **module** path (``"1.conv1"``) — the historical form; or
* by stable **arena name** (``"1.conv1.weight"``), a key of the trainer's
  :class:`~repro.state.StateArena` index.  The injector resolves the
  owning module from the arena layout, and
  :class:`UpdateFaultInjector` targets exactly that parameter's update
  slot instead of sampling one.  Because arena names survive model-code
  refactors as long as the registered leaves keep their names,
  propagation reports keyed this way stay comparable across versions.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.core.faults.hardware import HardwareFault, module_at
from repro.core.faults.software_models import (
    FaultRecord,
    Group7ZeroInput1,
    model_for_ff,
)
from repro.observe import FAULT_INJECTED
from repro.state import StateArena


def _emit_injection(trainer, fault, record: FaultRecord | None,
                    op: str) -> None:
    """Publish a ``fault_injected`` event through the trainer's tracer."""
    tracer = getattr(trainer, "tracer", None)
    if tracer is None or not tracer.enabled or record is None:
        return
    tracer.emit(
        FAULT_INJECTED, iteration=fault.iteration, device=fault.device,
        site=fault.site.module_name, kind=fault.site.kind, op=op,
        ff_category=fault.ff.category, model=record.model,
        num_faulty=record.num_faulty,
        max_abs_faulty=record.max_abs_faulty())


def rows_touched(faulty: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Indices along axis 0 (the batch, for an eval-mode forward site)
    whose bytes differ; both are float32, as every fault model's output
    is."""
    changed = faulty.view(np.uint32) != original.view(np.uint32)
    return np.flatnonzero(changed.reshape(len(original), -1).any(axis=1))


def resolve_site_module(trainer, replica, module_name: str):
    """Resolve an injection target to a module of ``replica``.

    Accepts either a qualified module path or a stable arena name (a
    parameter name from the trainer's fused state index), in which case
    the parameter's owning module is returned.
    """
    try:
        return module_at(replica, module_name)
    except KeyError:
        pass
    if module_name in trainer.master_arena.index:
        try:
            return module_at(replica, StateArena.owner_module(module_name))
        except KeyError:
            pass
    modules = sorted(name for name, _ in replica.named_modules())
    raise KeyError(
        f"op site {module_name!r} not found in model (neither a module "
        f"path nor an arena name); available modules: {modules[:10]}..."
    )


class FaultInjector:
    """One-shot fault injection at a specific (iteration, device, site)."""

    def __init__(self, fault: HardwareFault, config: AcceleratorConfig = DEFAULT_CONFIG):
        self.fault = fault
        self.config = config
        self.record: FaultRecord | None = None
        self._rng = np.random.default_rng(fault.seed)
        self._armed_module = None
        self.fired = False
        #: Axis-0 indices of the hooked tensor whose bytes the fault
        #: changed; set when the hook fires.
        self.rows: np.ndarray | None = None
        self._emitted = False

    # ------------------------------------------------------------------
    # The hook that perturbs the tensor
    # ------------------------------------------------------------------
    def _fault_hook(self, tensor: np.ndarray, info: dict) -> np.ndarray:
        if self.fired:
            return tensor
        self.fired = True
        model = model_for_ff(self.fault.ff, self.config)
        if isinstance(model, Group7ZeroInput1):
            fan_in = getattr(info.get("module"), "fan_in", None)
            faulty, record = model.apply(tensor, self._rng, self.fault.ff, fan_in=fan_in)
        else:
            faulty, record = model.apply(tensor, self._rng, self.fault.ff)
        self.record = record
        self.rows = rows_touched(faulty, np.asarray(tensor, dtype=np.float32))
        return faulty

    # ------------------------------------------------------------------
    # Arming (shared by the trainer-hook path and the serving fault
    # plane)
    # ------------------------------------------------------------------
    def arm(self, trainer, replica) -> None:
        """Arm the fault hook on ``replica``'s target module."""
        module = resolve_site_module(trainer, replica, self.fault.site.module_name)
        module.set_fault_hook(self.fault.site.kind, self._fault_hook)
        self._armed_module = module

    def disarm(self) -> None:
        if self._armed_module is not None:
            self._armed_module.set_fault_hook(self.fault.site.kind, None)
            self._armed_module = None

    # ------------------------------------------------------------------
    # Trainer hook interface
    # ------------------------------------------------------------------
    def before_iteration(self, trainer, iteration: int) -> None:
        """Trainer hook: arm the fault hook at the target iteration."""
        if iteration != self.fault.iteration:
            return
        if self.fault.device >= trainer.num_devices:
            raise ValueError(
                f"fault targets device {self.fault.device} but trainer has "
                f"{trainer.num_devices} devices"
            )
        self.arm(trainer, trainer.replicas[self.fault.device])

    def after_iteration(self, trainer, iteration: int, loss: float, acc: float) -> None:
        """Trainer hook: disarm after the iteration completes."""
        self.disarm()
        # Emit once per actual injection: a recovery rewind re-arms
        # this hook for the re-executed iteration, but the transient
        # fault does not recur (self.fired stays set).
        if self.fired and not self._emitted:
            self._emitted = True
            _emit_injection(trainer, self.fault, self.record, op="site")


class UpdateFaultInjector:
    """Injects a fault into the optimizer's weight-update operation.

    Models the Sec. 4.2.2 case: with SGD, large faulty weights can only be
    created "if a fault occurs during the weight update operation (i.e.,
    the operation that adds gradients to current weight values)".  The
    hook perturbs one parameter's update tensor with the sampled fault
    model, once.
    """

    def __init__(self, fault: HardwareFault, config: AcceleratorConfig = DEFAULT_CONFIG):
        self.fault = fault
        self.config = config
        self.record: FaultRecord | None = None
        self._rng = np.random.default_rng(fault.seed)
        self.fired = False
        self._target_index: int | None = None

    def _update_hook(self, update: np.ndarray, info: dict) -> np.ndarray:
        if self.fired or info["index"] != self._target_index:
            return update
        self.fired = True
        model = model_for_ff(self.fault.ff, self.config)
        faulty, record = model.apply(update, self._rng, self.fault.ff)
        self.record = record
        return faulty

    def before_iteration(self, trainer, iteration: int) -> None:
        if iteration == self.fault.iteration:
            self._target_index = self._resolve_target(trainer)
            trainer.optimizer.set_update_hook(self._update_hook)

    def _resolve_target(self, trainer) -> int:
        """The parameter index whose update is perturbed.

        If the fault site names a parameter in the trainer's fused state
        index, target it deterministically (stable across model
        refactors); otherwise sample one, as before.
        """
        arena = trainer.master_arena
        site_name = self.fault.site.module_name
        if site_name in arena.index:
            return arena.index_of(site_name)
        return int(self._rng.integers(0, len(trainer.optimizer.params)))

    def after_iteration(self, trainer, iteration: int, loss: float, acc: float) -> None:
        if iteration == self.fault.iteration:
            trainer.optimizer.set_update_hook(None)
            if self.fired:
                _emit_injection(trainer, self.fault, self.record,
                                op="weight_update")
