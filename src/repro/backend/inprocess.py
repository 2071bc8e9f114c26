"""The historical single-process simulated backend.

This is the loop body ``SyncDataParallelTrainer.run_iteration`` always
ran, extracted behind the :class:`~repro.backend.base.ExecutionBackend`
interface and otherwise unchanged — golden traces
(``tests/data/golden_traces.json``) pin it bit-identical to the
pre-backend trainer.  Every replica steps sequentially in this process;
"communication" is the central-server accumulate/average/broadcast the
paper's simulator modeled.

Gradient accumulation is fully pre-allocated: the fused path reuses the
trainer's arena-layout scratch buffer, and the scattered fallback (tied
weights) keeps one per-parameter sum buffer for the trainer's lifetime,
so no per-iteration allocation happens on the averaging path.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ExecutionBackend


class InProcessBackend(ExecutionBackend):
    """Sequentially simulated replicas inside the trainer's process."""

    name = "inprocess"

    def __init__(self):
        super().__init__()
        self._grad_accum: np.ndarray | None = None
        self._master_params = None
        self._grad_sums: list[np.ndarray] | None = None

    def bind(self, trainer) -> None:
        super().bind(trainer)
        if trainer.arenas is not None:
            self._grad_accum = trainer.master_arena.scratch()
        else:
            self._master_params = list(trainer.master.parameters())
            self._grad_sums = [np.zeros_like(p.data)
                               for p in self._master_params]

    # ------------------------------------------------------------------
    # Per-iteration contract
    # ------------------------------------------------------------------
    def step(self, iteration: int) -> tuple[float, float]:
        result = self.step_devices(iteration)
        if self.trainer.arenas is not None:
            self.reduce_fused()
        else:
            self._reduce_scattered()
        return result

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
