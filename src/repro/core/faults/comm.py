"""Link faults: perturbing the in-flight reduced gradient.

Extends the fault-site addressing from tensors held *inside* a device
(forward activations, weight/input gradients, optimizer updates) to the
communication fabric between devices — the interconnect links that
Table 1 of the paper counts among the hardware components whose faults
reach training state.  A link fault manifests as corrupted bits in data
that was correct when it left the sender: here, the all-reduced mean
gradient, perturbed exactly once, after the reduction and before any
consumer (hooks, optimizer) sees it.

There is one injection point
(:meth:`repro.backend.base.ExecutionBackend.set_comm_fault_hook`,
applied by ``reduce_fused`` after the central-server average, whether a
lane step or the solo device loop produced the gradients), so a comm
fault propagates bit-identically however the devices were stepped: the
corrupted mean is applied by the master optimizer and broadcast to
*every* replica, the defining difference from single-device faults,
which are diluted by ``1/num_devices`` at the same point.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.core.faults.hardware import HardwareFault
from repro.core.faults.injector import FaultInjector, _emit_injection
from repro.core.faults.software_models import FaultRecord, model_for_ff

#: The site kind used by comm faults (mirrors ``core.faults.hardware``'s
#: forward/weight_grad/input_grad vocabulary).
COMM = "comm"

#: The conventional module name for link faults: there is one logical
#: reduction link in the simulated topology, not a per-layer site.
LINK_SITE = "link"


class CommFaultInjector:
    """One-shot bit corruption of the reduced gradient at one iteration.

    A trainer hook, like :class:`~repro.core.faults.injector.FaultInjector`:
    arms the backend's comm-fault site at the target iteration, fires
    exactly once, disarms afterwards, and keeps the
    :class:`~repro.core.faults.software_models.FaultRecord` for analysis.
    ``fault.device`` is recorded but does not select a replica — the
    corrupted mean reaches all of them.
    """

    def __init__(self, fault: HardwareFault, config: AcceleratorConfig = DEFAULT_CONFIG):
        self.fault = fault
        self.config = config
        self.record: FaultRecord | None = None
        self._rng = np.random.default_rng(fault.seed)
        self.fired = False
        self._emitted = False
        self._armed = False

    # ------------------------------------------------------------------
    # The hook the backend applies to the reduced buffer
    # ------------------------------------------------------------------
    def _comm_hook(self, reduced: np.ndarray) -> np.ndarray:
        if self.fired:
            return reduced
        self.fired = True
        model = model_for_ff(self.fault.ff, self.config)
        faulty, record = model.apply(reduced, self._rng, self.fault.ff)
        self.record = record
        return faulty

    # ------------------------------------------------------------------
    # Trainer hook interface
    # ------------------------------------------------------------------
    def before_iteration(self, trainer, iteration: int) -> None:
        if iteration != self.fault.iteration:
            return
        trainer.backend.set_comm_fault_hook(self._comm_hook)
        self._armed = True

    def after_iteration(self, trainer, iteration: int, loss: float, acc: float) -> None:
        if self._armed:
            trainer.backend.set_comm_fault_hook(None)
            self._armed = False
        if self.fired and not self._emitted:
            self._emitted = True
            _emit_injection(trainer, self.fault, self.record, op="comm")


def injector_for(fault: HardwareFault):
    """The injector hook matching a fault's site kind: link faults
    corrupt the reduced gradient, everything else a device tensor."""
    if fault.site.kind == COMM:
        return CommFaultInjector(fault)
    return FaultInjector(fault)
