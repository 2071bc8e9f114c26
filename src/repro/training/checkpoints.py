"""Training-state checkpoints.

Used in two roles:

* **Campaign baselines** — an FI campaign trains a workload fault-free to
  the injection window once, snapshots the full trainer state, and resumes
  from the snapshot for every injection experiment (this is how the
  paper's artifact uses pre-trained checkpoints per epoch).
* **The checkpointing baseline** of Sec. 5.3 — a checkpoint per epoch,
  whose recovery cost (re-training from the last epoch boundary) the
  paper compares against two-iteration re-execution (up to ~500x).

Capture strategy
----------------
Every trainer carries a fused state layer (:mod:`repro.state`), so a
snapshot is **one buffer copy per state class**: each replica's fused
parameter buffer, each optimizer slot segment, plus the small per-device
extra state (BatchNorm moving statistics — deliberately outside the
arena, because they are never averaged across devices and their
per-device locality is the LowTestAccuracy mechanism, Sec. 4.3.3).  This
is what makes the always-on per-iteration snapshot ring of the recovery
manager cheap (``state.snapshot_s`` / ``state.restore_s`` in
``benchmarks/perf/run.py --trace``).
"""

from __future__ import annotations

import time

import numpy as np


class Checkpoint:
    """A deep snapshot of trainer state at an iteration boundary, held
    as the raw buffers it was copied from."""

    def __init__(self, trainer):
        arenas = trainer.arenas
        self.iteration = int(trainer.iteration)
        #: The arena's ``name -> ArenaEntry`` index every buffer below is
        #: addressed by.
        self.layout = arenas[0].index
        #: One fused parameter buffer per replica.  A replica whose bytes
        #: are replica 0's — every replica at an iteration boundary, where
        #: the broadcast made them so — shares replica 0's copy.
        first = arenas[0].param.copy()
        self.param_bufs = [first] + [
            first if np.array_equal(arena.param.view(np.uint32),
                                    first.view(np.uint32))
            else arena.param.copy() for arena in arenas[1:]]
        # Per replica: [(module_name, {key: copy}), ...] over the arena's
        # cached stateful-module list — the hot path of per-iteration
        # capture, so no module-tree walk and no intermediate dicts.
        self.extra = [
            [
                (mod_name, {k: v.copy() for k, v in module.extra_state().items()})
                for mod_name, module in arena.stateful_modules
            ]
            for arena in arenas
        ]
        optimizer = trainer.optimizer
        self.opt_iteration = optimizer.iteration
        self.opt_lr = optimizer.lr
        #: Optimizer slot name (``m``, ``v``, ``velocity``, ...) -> its
        #: fused buffer, in the same layout as the parameters.
        self.opt_slots = {
            name: buf.copy() for name, buf in optimizer._fused_slots.items()
        }

    @classmethod
    def capture(cls, trainer) -> "Checkpoint":
        """Snapshot a :class:`SyncDataParallelTrainer`."""
        return cls(trainer)

    def restore(self, trainer) -> None:
        """Load this snapshot back into a trainer (in place).  The
        trainer must have the replica count, arena layout, optimizer
        slots and stateful modules the snapshot was taken from."""
        if len(trainer.arenas) != len(self.param_bufs):
            raise ValueError(
                f"checkpoint has {len(self.param_bufs)} replicas, "
                f"trainer has {len(trainer.arenas)}"
            )
        master, optimizer = trainer.master_arena, trainer.optimizer
        if (master.index != self.layout
                or [name for name, _ in master.stateful_modules]
                != [name for name, _ in self.extra[0]]):
            raise ValueError(
                "checkpoint and trainer lay their state out differently")
        if set(optimizer._fused_slots) != set(self.opt_slots):
            raise ValueError(
                f"checkpoint holds optimizer slots {sorted(self.opt_slots)}, "
                f"trainer has {sorted(optimizer._fused_slots)}")
        for arena, buf, extra in zip(trainer.arenas, self.param_bufs, self.extra):
            np.copyto(arena.param, buf)
            for (_, module), (_, state) in zip(arena.stateful_modules, extra):
                module.load_extra_state(
                    {k: np.array(v, copy=True) for k, v in state.items()}
                )
        optimizer.iteration = int(self.opt_iteration)
        optimizer.lr = float(self.opt_lr)
        for name, buf in self.opt_slots.items():
            np.copyto(optimizer._fused_slots[name], buf)
        trainer.iteration = self.iteration

    def nbytes(self) -> int:
        """Snapshot size: every buffer (a shared one once per replica)
        and every extra-state array."""
        total = sum(buf.nbytes for buf in self.param_bufs)
        total += sum(buf.nbytes for buf in self.opt_slots.values())
        total += sum(value.nbytes for replica in self.extra
                     for _, state in replica for value in state.values())
        return total


class CheckpointStore:
    """Rolling store of epoch-boundary checkpoints (the Sec. 5.3 baseline)."""

    def __init__(self, every: int, keep: int = 3):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive: {every}")
        self.every = int(every)
        self.keep = int(keep)
        self.checkpoints: list[Checkpoint] = []
        #: Wall-clock seconds spent capturing checkpoints (overhead metric).
        self.capture_seconds = 0.0

    def maybe_capture(self, trainer) -> Checkpoint | None:
        """Capture a checkpoint if the trainer sits on a boundary."""
        if trainer.iteration % self.every != 0:
            return None
        start = time.perf_counter()
        ckpt = Checkpoint.capture(trainer)
        self.capture_seconds += time.perf_counter() - start
        self.checkpoints.append(ckpt)
        if len(self.checkpoints) > self.keep:
            self.checkpoints.pop(0)
        return ckpt

    def latest_before(self, iteration: int) -> Checkpoint | None:
        """Most recent checkpoint strictly before ``iteration``."""
        best = None
        for ckpt in self.checkpoints:
            if ckpt.iteration < iteration and (best is None or ckpt.iteration > best.iteration):
                best = ckpt
        return best

    # Hook interface: capture on iteration boundaries automatically.
    def before_iteration(self, trainer, iteration: int) -> None:
        """Trainer hook: capture on iteration boundaries."""
        self.maybe_capture(trainer)
