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
When the trainer carries a fused state layer (:mod:`repro.state`), a
snapshot is **one buffer copy per state class**: each replica's fused
parameter buffer, each optimizer slot segment, plus the small per-device
extra state (BatchNorm moving statistics — deliberately outside the
arena, because they are never averaged across devices and their
per-device locality is the LowTestAccuracy mechanism, Sec. 4.3.3).  This
is what makes the always-on per-iteration snapshot ring of the recovery
manager cheap (``state.snapshot_s`` / ``state.restore_s`` in
``benchmarks/perf/run.py --trace``).

The legacy dict representation (``replica_states`` / ``optimizer_state``)
remains available on every checkpoint: for fused captures it is
materialized lazily as views into the stored buffers, so existing
consumers (corruption analyses, campaign tooling) keep working unchanged.
"""

from __future__ import annotations

import copy
import time

import numpy as np


def _ndarray_leaf_bytes(value) -> int:
    """Total bytes of every ndarray leaf in a nested list/tuple/dict."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_ndarray_leaf_bytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_ndarray_leaf_bytes(v) for v in value)
    return 0


class _FusedCapture:
    """The raw-buffer form of a snapshot taken from an arena trainer."""

    def __init__(self, trainer):
        arenas = trainer.arenas
        self.layout = arenas[0].index
        self.param_bufs = [arena.param.copy() for arena in arenas]
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
        self.opt_slots = {
            name: buf.copy() for name, buf in optimizer._fused_slots.items()
        }

    def _views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: buf[e.offset : e.offset + e.size].reshape(e.shape)
            for name, e in self.layout.items()
        }

    def replica_state(self, device: int) -> dict[str, np.ndarray]:
        """Materialize one replica's ``state_dict``-shaped mapping.

        Array values are views into the stored buffers: reads see the
        captured state and in-place writes (e.g. corruption studies)
        stay coherent with the fused restore path.
        """
        out = {
            f"param:{name}": view
            for name, view in self._views(self.param_bufs[device]).items()
        }
        for mod_name, state in self.extra[device]:
            for key, value in state.items():
                out[f"state:{mod_name}:{key}"] = value
        return out

    def optimizer_state(self) -> dict:
        out: dict = {"iteration": self.opt_iteration, "lr": self.opt_lr}
        for name, buf in self.opt_slots.items():
            out[name] = list(self._views(buf).values())
        return out

    def restorable_into(self, trainer) -> bool:
        """True if ``trainer`` can take the raw buffers directly."""
        return (
            trainer.arenas is not None
            and trainer.master_arena.index == self.layout
            and set(trainer.optimizer._fused_slots) == set(self.opt_slots)
            and [name for name, _ in trainer.master_arena.stateful_modules]
            == [name for name, _ in self.extra[0]]
        )

    def restore(self, trainer) -> None:
        for arena, buf in zip(trainer.arenas, self.param_bufs):
            np.copyto(arena.param, buf)
        for arena, extra in zip(trainer.arenas, self.extra):
            for (_, module), (_, state) in zip(arena.stateful_modules, extra):
                module.load_extra_state(
                    {k: np.array(v, copy=True) for k, v in state.items()}
                )
        optimizer = trainer.optimizer
        optimizer.iteration = int(self.opt_iteration)
        optimizer.lr = float(self.opt_lr)
        for name, buf in self.opt_slots.items():
            np.copyto(optimizer._fused_slots[name], buf)

    def nbytes(self) -> int:
        total = sum(buf.nbytes for buf in self.param_bufs)
        total += sum(buf.nbytes for buf in self.opt_slots.values())
        total += _ndarray_leaf_bytes(self.extra)
        return total


class Checkpoint:
    """A deep snapshot of trainer state at an iteration boundary."""

    def __init__(self, iteration: int, replica_states: list[dict] | None = None,
                 optimizer_state: dict | None = None):
        self.iteration = int(iteration)
        self._replica_states = replica_states
        self._optimizer_state = optimizer_state
        self._fused: _FusedCapture | None = None

    @classmethod
    def capture(cls, trainer) -> "Checkpoint":
        """Snapshot a :class:`SyncDataParallelTrainer`.

        Fused-buffer capture when the trainer has a state arena; the
        scattered per-array walk otherwise."""
        if getattr(trainer, "arenas", None) is not None:
            ckpt = cls(trainer.iteration)
            ckpt._fused = _FusedCapture(trainer)
            return ckpt
        return cls.capture_scattered(trainer)

    @classmethod
    def capture_scattered(cls, trainer) -> "Checkpoint":
        """The pre-arena capture path: one copy per array via
        ``state_dict()``.  Kept for non-arena trainers and as the
        reference ``tests/test_state_arena.py`` compares fused captures
        against."""
        replica_states = [replica.state_dict() for replica in trainer.replicas]
        return cls(
            iteration=trainer.iteration,
            replica_states=replica_states,
            optimizer_state=copy.deepcopy(trainer.optimizer.state_dict()),
        )

    # ------------------------------------------------------------------
    # Dict-shaped views (lazy for fused captures)
    # ------------------------------------------------------------------
    @property
    def replica_states(self) -> list[dict]:
        if self._replica_states is None and self._fused is not None:
            self._replica_states = [
                self._fused.replica_state(device)
                for device in range(len(self._fused.param_bufs))
            ]
        return self._replica_states

    @property
    def optimizer_state(self) -> dict:
        if self._optimizer_state is None and self._fused is not None:
            self._optimizer_state = self._fused.optimizer_state()
        return self._optimizer_state

    @property
    def num_replicas(self) -> int:
        if self._fused is not None:
            return len(self._fused.param_bufs)
        return len(self._replica_states)

    def restore(self, trainer) -> None:
        """Load this snapshot back into a trainer (in place)."""
        if len(trainer.replicas) != self.num_replicas:
            raise ValueError(
                f"checkpoint has {self.num_replicas} replicas, "
                f"trainer has {len(trainer.replicas)}"
            )
        if self._fused is not None and self._fused.restorable_into(trainer):
            self._fused.restore(trainer)
            trainer.iteration = self.iteration
            return
        for replica, state in zip(trainer.replicas, self.replica_states):
            replica.load_state_dict(state)
        trainer.optimizer.load_state_dict(copy.deepcopy(self.optimizer_state))
        trainer.iteration = self.iteration

    def nbytes(self) -> int:
        """Approximate snapshot size: every ndarray leaf, including
        dict- or nested-valued optimizer slots."""
        if self._fused is not None:
            return self._fused.nbytes()
        total = _ndarray_leaf_bytes(self.replica_states)
        for key, value in self.optimizer_state.items():
            if key not in ("iteration", "lr"):
                total += _ndarray_leaf_bytes(value)
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
