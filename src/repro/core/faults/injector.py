"""Fault injection engine: applies one software fault, once, to one
tensor of one training iteration.

The injector is a trainer hook (see
:class:`repro.distributed.sync.SyncDataParallelTrainer`): it arms a
one-shot hook at the start of the chosen iteration, the hook fires
exactly once (the first tensor it sees), and it is disarmed at the end
of the iteration.  Where the hook goes follows from the fault's site
kind (DESIGN.md decision 20):

* an op site (``forward`` / ``weight_grad`` / ``input_grad``) — the
  target module's fault hook on the chosen device's replica;
* ``comm`` — the backend's reduced gradient
  (:meth:`~repro.backend.base.ExecutionBackend.set_comm_fault_hook`),
  which reaches every replica: ``fault.device`` is recorded but selects
  nothing;
* ``weight_update`` — one parameter's update tensor in the optimizer
  (:meth:`~repro.optim.base.Optimizer.set_update_hook`).

The software fault model is the one the fault's FF selects, or the
fault's ``pinned`` magnitude model for a directed fault.  The resulting
:class:`~repro.core.faults.software_models.FaultRecord` is kept for
analysis (faulty element counts/positions/values — Table 4's ranges).

Stable arena addressing
-----------------------
Injection targets can be named two ways:

* by qualified **module** path (``"1.conv1"``) — the historical form; or
* by stable **arena name** (``"1.conv1.weight"``), a key of the trainer's
  :class:`~repro.state.StateArena` index.  The injector resolves the
  owning module from the arena layout, and a ``weight_update`` fault
  targets exactly that parameter's update slot instead of sampling one.
  Because arena names survive model-code refactors as long as the
  registered leaves keep their names, propagation reports keyed this
  way stay comparable across versions.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.core.faults.hardware import COMM, WEIGHT_UPDATE, HardwareFault, module_at
from repro.core.faults.software_models import FaultRecord, model_for_ff, write_record
from repro.observe import FAULT_INJECTED
from repro.state import StateArena


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
        self.fired = False
        #: Axis-0 indices (the batch, at an eval-mode forward site) of
        #: the tensor whose bytes the fault changed; set when it fires.
        self.rows: np.ndarray | None = None
        self._emitted = False
        #: The setter of the armed hook slot (called with ``None`` to
        #: disarm), or ``None`` when nothing is armed.
        self._slot = None

    def draw(self, tensor: np.ndarray, module=None) -> FaultRecord:
        """The fault's record on ``tensor``, which is only read: the
        software fault model is the one its FF selects, or its ``pinned``
        model.  ``module`` is an op site's module: its ``fan_in`` scales a
        Group 7 or 8 fault."""
        self.fired = True
        model = self.fault.pinned or model_for_ff(self.fault.ff, self.config)
        self.record = model.apply(tensor, self._rng, self.fault.ff,
                                  fan_in=getattr(module, "fan_in", None))
        return self.record

    def apply(self, tensor: np.ndarray, module=None) -> np.ndarray:
        """The fault applied to ``tensor``, the first time only; later
        calls return ``tensor`` as is.  ``module`` goes to :meth:`draw`;
        the rows the fault changed are kept in :attr:`rows`."""
        if self.fired:
            return tensor
        self.rows, faulty = write_record(tensor, self.draw(tensor, module))
        return faulty

    # ------------------------------------------------------------------
    # Arming (shared by the trainer-hook path and the serving fault
    # plane)
    # ------------------------------------------------------------------
    def arm(self, trainer, replica=None) -> None:
        """Arm the hook the fault's site kind names: the reduced gradient
        of ``trainer``'s backend, one parameter update of its optimizer,
        or the target module of ``replica`` (op sites)."""
        kind = self.fault.site.kind
        if kind == COMM:
            self._slot = trainer.backend.set_comm_fault_hook
            self._slot(self.apply)
        elif kind == WEIGHT_UPDATE:
            target = self._update_target(trainer)
            self._slot = trainer.optimizer.set_update_hook
            self._slot(lambda update, info: self.apply(update)
                       if info["index"] == target else update)
        else:
            module = resolve_site_module(trainer, replica, self.fault.site.module_name)
            self._slot = lambda hook: module.set_fault_hook(kind, hook)
            self._slot(lambda tensor, info: self.apply(tensor, module))

    def _update_target(self, trainer) -> int:
        """The parameter index whose update is perturbed: the parameter
        the site names in the trainer's fused state index (stable across
        model refactors), else a sampled one."""
        arena = trainer.master_arena
        site_name = self.fault.site.module_name
        if site_name in arena.index:
            return arena.index_of(site_name)
        return int(self._rng.integers(0, len(trainer.optimizer.params)))

    def disarm(self) -> None:
        if self._slot is not None:
            self._slot(None)
            self._slot = None

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
        """Trainer hook: disarm after the iteration completes, and
        publish ``fault_injected`` once per actual injection: a recovery
        rewind re-arms this hook for the re-executed iteration, but the
        transient fault does not recur (``fired`` stays set)."""
        self.disarm()
        if self.fired and not self._emitted:
            self._emitted = True
            self._emit(trainer)

    def _emit(self, trainer) -> None:
        """Publish ``fault_injected`` through the trainer's tracer; ``op``
        names the hook point (``site``, ``comm`` or ``weight_update``)."""
        tracer = trainer.tracer
        if not tracer.enabled or self.record is None:
            return
        fault, record = self.fault, self.record
        op = fault.site.kind if fault.site.kind in (COMM, WEIGHT_UPDATE) else "site"
        tracer.emit(
            FAULT_INJECTED, iteration=fault.iteration, device=fault.device,
            site=fault.site.module_name, kind=fault.site.kind, op=op,
            ff_category=fault.ff.category, model=record.model,
            num_faulty=record.num_faulty,
            max_abs_faulty=record.max_abs_faulty())
