"""The default backend: one device-step program for a trainer's D devices.

Every replica lives in the trainer's process and "communication" is the
central-server accumulate / average / broadcast the paper's simulator
modeled.  What :meth:`InProcessBackend.step` runs for the per-device
forward / loss / backward depends on the model, not on a setting:

* lane step — the model ``is_lane_native()``, compute precision is FP32
  and the trainer has arenas: the D devices are the D lanes of one
  program replica (contract in :mod:`repro.backend.batched`), one
  forward and one backward per layer per iteration instead of D;
* solo loop — everything else: :func:`~repro.backend.base.device_step`
  per device, in device order.  It is the fallback and the reference:
  ``tests/conftest.py::forced_solo`` sends lane-native models down it to
  pin lane == solo bytes.

The reduction after either is the same code (scratch pre-allocated):
:meth:`reduce_fused` over the arenas, or the per-parameter sums below
when tied weights kept the parameters from being fused.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ExecutionBackend


class InProcessBackend(ExecutionBackend):
    """Replicas stepped inside the trainer's process (``--backend
    inprocess``, the default)."""

    name = "inprocess"

    def __init__(self):
        super().__init__()
        #: The :class:`~repro.backend.batched.LaneGroup` this trainer's
        #: arenas live in: private (one experiment) unless a
        #: :class:`~repro.backend.batched.BatchedBackend` was handed a
        #: shared one; ``None`` without arenas and once closed.
        self.group = None
        self._grad_accum: np.ndarray | None = None
        self._master_params = None
        self._grad_sums: list[np.ndarray] | None = None

    def bind(self, trainer) -> None:
        from repro.backend.batched import LaneGroup

        super().bind(trainer)
        if trainer.arenas is not None:
            self._grad_accum = trainer.master_arena.scratch()
            if self.group is None:
                self.group = LaneGroup(capacity=1)
        else:
            self._master_params = list(trainer.master.parameters())
            self._grad_sums = [np.zeros_like(p.data)
                               for p in self._master_params]
        if self.group is not None:
            self.group.adopt(trainer)

    def close(self) -> None:
        super().close()
        self.group = None  # group -> member -> trainer -> backend -> group

    # ------------------------------------------------------------------
    # Per-iteration contract
    # ------------------------------------------------------------------
    def step(self, iteration: int) -> tuple[float, float]:
        if self.group is not None and self.group.vectorized:
            return self.group.compute_block([(self.trainer, iteration)])[0]
        result = self.step_devices(iteration)
        if self.trainer.arenas is not None:
            self.reduce_fused()
        else:
            self._reduce_scattered()
        return result

    def forward_caches(self, device: int):
        if self.group is not None and self.group.vectorized:
            return self.group.forward_caches(self.trainer, device)
        return super().forward_caches(device)

    def _reduce_scattered(self) -> None:
        """Per-parameter accumulate and average (tied weights: no arena,
        so no comm-fault site either)."""
        trainer = self.trainer
        grad_sums = self._grad_sums
        for g_sum in grad_sums:
            g_sum.fill(0.0)
        inv = 1.0 / trainer.num_devices
        with np.errstate(over="ignore", invalid="ignore"):
            for replica in trainer.replicas:
                for g_sum, param in zip(grad_sums, replica.parameters()):
                    g_sum += param.grad
            for param, g_sum in zip(self._master_params, grad_sums):
                np.multiply(g_sum, inv, out=param.grad)

    def broadcast(self) -> None:
        """Copy master parameters into every other replica — one fused
        buffer copy per replica when arenas are available."""
        trainer = self.trainer
        if trainer.arenas is not None:
            master = trainer.master_arena.param
            for arena in trainer.arenas[1:]:
                np.copyto(arena.param, master)
            return
        master_params = self._master_params
        for replica in trainer.replicas[1:]:
            for p_master, p_replica in zip(master_params, replica.parameters()):
                np.copyto(p_replica.data, p_master.data)
