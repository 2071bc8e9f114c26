"""Training-state checkpoints.

Used in two roles:

* **Campaign baselines** — an FI campaign trains a workload fault-free to
  the injection window once, snapshots the full trainer state, and resumes
  from the snapshot for every injection experiment (this is how the
  paper's artifact uses pre-trained checkpoints per epoch).
* **The recovery ring** — :class:`repro.core.mitigation.RecoveryManager`
  keeps the newest few, captured before every iteration for
  two-iteration re-execution (Sec. 5.2) or every epoch for the
  checkpointing baseline it is compared against (Sec. 5.3): one ring
  at two cadences.

Capture strategy
----------------
Every trainer carries a fused state layer (:mod:`repro.state`), so a
snapshot is **one buffer copy per state class**: each replica's fused
parameter buffer, each optimizer slot segment (the optimizer's only
state), plus the small per-device extra state taken by
:meth:`repro.state.StateArena.capture_extra` (BatchNorm moving
statistics — deliberately outside the segments, because they are never
averaged across devices and their per-device locality is the
LowTestAccuracy mechanism, Sec. 4.3.3).  This is what makes the
always-on per-iteration ring cheap (``state.snapshot_s`` /
``state.restore_s`` in ``benchmarks/perf/run.py --trace``).
"""

from __future__ import annotations

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
        #: Per replica: ``[(module_name, {key: copy}), ...]``.
        self.extra = [arena.capture_extra() for arena in arenas]
        optimizer = trainer.optimizer
        self.opt_iteration = optimizer.iteration
        self.opt_lr = optimizer.lr
        #: Optimizer slot name (``m``, ``v``, ``velocity``, ...) -> its
        #: fused buffer, in the same layout as the parameters.
        self.opt_slots = {
            name: buf.copy() for name, buf in optimizer.slots.items()
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
        if set(optimizer.slots) != set(self.opt_slots):
            raise ValueError(
                f"checkpoint holds optimizer slots {sorted(self.opt_slots)}, "
                f"trainer has {sorted(optimizer.slots)}")
        for arena, buf, extra in zip(trainer.arenas, self.param_bufs, self.extra):
            np.copyto(arena.param, buf)
            arena.load_extra(extra)
        optimizer.iteration = int(self.opt_iteration)
        optimizer.lr = float(self.opt_lr)
        for name, buf in self.opt_slots.items():
            np.copyto(optimizer.slots[name], buf)
        trainer.iteration = self.iteration

    def nbytes(self) -> int:
        """Snapshot size: every buffer (a shared one once per replica)
        and every extra-state array."""
        total = sum(buf.nbytes for buf in self.param_bufs)
        total += sum(buf.nbytes for buf in self.opt_slots.values())
        total += sum(value.nbytes for replica in self.extra
                     for _, state in replica for value in state.values())
        return total
