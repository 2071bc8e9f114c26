"""The default backend: one device-step program for a trainer's D devices.

Every replica lives in the trainer's process and "communication" is the
central-server accumulate / average / broadcast the paper's simulator
modeled.  What :meth:`InProcessBackend.step` runs for the per-device
forward / loss / backward depends on the model, not on a setting:

* lane step — the model ``is_lane_native()`` and compute precision is
  FP32: the D devices are the D lanes of one program replica (contract
  in :mod:`repro.backend.batched`), one forward and one backward per
  layer per iteration instead of D;
* solo loop — everything else: :func:`~repro.backend.base.device_step`
  per device, in device order.  It is the fallback and the reference:
  ``tests/conftest.py::forced_solo`` sends lane-native models down it to
  pin lane == solo bytes.

Either computes only the devices the backend was not ``given`` a
reference share for, and ends in the same code (scratch pre-allocated):
:meth:`settle`, whose :meth:`reduce_fused` runs over the trainer's
arenas.
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
        #: shared one; ``None`` until bound and once closed.
        self.group = None
        self._grad_accum: np.ndarray | None = None

    def bind(self, trainer) -> None:
        from repro.backend.batched import LaneGroup

        super().bind(trainer)
        self._grad_accum = trainer.master_arena.scratch()
        if self.group is None:
            self.group = LaneGroup(capacity=1)
        self.group.adopt(trainer)

    def close(self) -> None:
        super().close()
        self.group = None  # group -> member -> trainer -> backend -> group

    # ------------------------------------------------------------------
    # Per-iteration contract
    # ------------------------------------------------------------------
    def step(self, iteration: int) -> tuple[float, float]:
        if self.group.vectorized:
            return self.group.compute_block([(self.trainer, iteration)])[0]
        return self.step_devices(iteration)

    def forward_caches(self, device: int):
        if self.group.vectorized:
            return self.group.forward_caches(self.trainer, device)
        return super().forward_caches(device)

    def broadcast(self) -> None:
        """Copy master parameters into every other replica: one fused
        buffer copy per replica."""
        arenas = self.trainer.arenas
        for arena in arenas[1:]:
            np.copyto(arena.param, arenas[0].param)
