"""Recovery by re-execution from a ring of snapshots (Sec. 5.2, Sec. 5.3).

When the detector fires (at most two iterations after the hardware
failure, per the necessary conditions), the recovery manager rewinds the
trainer to the state it had two iterations earlier and lets training
re-execute those iterations.  Because the fault was transient, the
re-execution is clean; because the data loader and all random draws are
addressed by iteration index, the replayed iterations see exactly the
same mini-batches and random masks (requirements (2) and (3) of
Sec. 5.2).

The paper's Sec. 5.3 baseline, per-epoch checkpointing, is the same
mechanism at another cadence: :class:`RecoveryManager` captures a
:class:`~repro.training.checkpoints.Checkpoint` before every iteration
divisible by ``every``, keeps the ``keep`` newest, and a rewind restores
the newest one at or before the iteration it must re-execute from.
``RecoveryManager()`` (``every=1``) is two-iteration re-execution;
``RecoveryManager(every=epoch)`` is the checkpoint baseline, whose
re-executed iterations (up to an epoch) set the paper's "up to ~500x".

Two rewind strategies, both exercised by tests/benches:

* ``"snapshot"`` (default) — the ring above.  Bit-exact.
* ``"arithmetic"`` — the paper's formulation: store the applied updates
  and gradients of the last few iterations and *invert* the optimizer
  recurrences (``w_{t-1} = w_t + u_t``; for Adam,
  ``m_{t-1} = (m_t - (1-b1) g_t)/b1`` etc.).  Cheaper in bookkeeping,
  exact up to float rounding; it inverts one iteration at a time, so it
  takes ``every=1`` only.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.observe import ROLLBACK
from repro.optim.adam import Adam, RMSProp
from repro.optim.sgd import SGD
from repro.training.checkpoints import Checkpoint

#: Number of most-recent iterations re-executed on detection (Sec. 5.2).
REEXECUTE_ITERATIONS = 2


class RecoveryError(RuntimeError):
    """Raised when a rewind cannot be performed (e.g. no history yet)."""


class RecoveryManager:
    """Trainer hook keeping a ring of rewind points and rewinding to one.

    ``every`` is the capture cadence in iterations and ``keep`` the ring
    size; the defaults hold the three newest pre-iteration snapshots,
    enough for a two-iteration re-execution.
    """

    def __init__(self, strategy: str = "snapshot", every: int = 1,
                 keep: int = REEXECUTE_ITERATIONS + 1, max_recoveries: int = 8):
        if strategy not in ("snapshot", "arithmetic"):
            raise ValueError(f"unknown recovery strategy: {strategy!r}")
        if every < 1 or keep < 1:
            raise ValueError(
                f"snapshot interval and ring size must be positive: "
                f"every={every}, keep={keep}")
        if strategy == "arithmetic" and every != 1:
            raise ValueError(
                "the arithmetic rewind inverts every iteration it re-executes, "
                f"so it captures every iteration: every=1, not {every}")
        self.strategy = strategy
        self.every = int(every)
        self.max_recoveries = int(max_recoveries)
        self.recoveries = 0
        #: The snapshot strategy's ring, oldest first.
        self.snapshots: deque[Checkpoint] = deque(maxlen=int(keep))
        # The arithmetic strategy's ring: per-iteration inversion records.
        self._steps: deque[dict] = deque(maxlen=int(keep))

    # ------------------------------------------------------------------
    # State capture (hook: before every iteration)
    # ------------------------------------------------------------------
    def before_iteration(self, trainer, iteration: int) -> None:
        if self.strategy == "arithmetic":
            self._arm_arithmetic_capture(trainer, iteration)
        elif iteration % self.every == 0:
            self.snapshots.append(Checkpoint.capture(trainer))

    def _arm_arithmetic_capture(self, trainer, iteration: int) -> None:
        """Record the applied updates, the gradient, and the small
        history state (BatchNorm moving stats) needed to invert this
        iteration."""
        optimizer = trainer.optimizer
        previous_hook = optimizer._update_hook
        entry: dict = {
            "iteration": iteration,
            "grad": None,
            "updates": [],
            "extra": [arena.capture_extra() for arena in trainer.arenas],
            "previous_hook": previous_hook,
        }
        self._steps.append(entry)

        def capture_hook(update: np.ndarray, info: dict) -> np.ndarray:
            if previous_hook is not None:
                update = previous_hook(update, info)
            entry["updates"].append(np.array(update, copy=True))
            return update

        optimizer.set_update_hook(capture_hook)

    def after_step(self, trainer, iteration: int) -> None:
        if self.strategy == "arithmetic" and self._steps:
            entry = self._steps[-1]
            if entry["iteration"] == iteration and entry["updates"]:
                entry["grad"] = trainer.optimizer.arena.grad.copy()
                trainer.optimizer.set_update_hook(entry["previous_hook"])

    # ------------------------------------------------------------------
    # Rewind
    # ------------------------------------------------------------------
    def rewind(self, trainer, iterations: int = REEXECUTE_ITERATIONS,
               detected_at: int | None = None) -> int:
        """Rewind so at least the ``iterations`` most recent iterations
        re-execute; returns the iteration training resumes from.

        ``detected_at`` is the iteration at which detection fired (the
        iteration currently completing); the snapshot strategy restores
        the newest ring entry at or before ``detected_at + 1 -
        iterations``, so ``every > 1`` re-executes up to ``every - 1``
        iterations more.  If the manager was attached too recently to
        hold state that far back, it rewinds as far as it can (the oldest
        captured state), which still precedes the fault when detection
        latency is within the ring's reach.
        """
        if self.recoveries >= self.max_recoveries:
            raise RecoveryError(
                f"recovery limit reached ({self.max_recoveries}); the failure "
                "appears persistent — decommission the accelerator"
            )
        at = trainer.iteration if detected_at is None else int(detected_at)
        ideal = max(at + 1 - iterations, 0)
        if self.strategy == "snapshot":
            target = self._rewind_snapshot(trainer, ideal)
        else:
            target = self._rewind_arithmetic(trainer, ideal)
        trainer.record.truncate_to(target)
        trainer.record.recoveries.append(target)
        self.recoveries += 1
        return target

    def _rewind_snapshot(self, trainer, ideal: int) -> int:
        if not self.snapshots:
            raise RecoveryError("no snapshots captured yet; cannot rewind")
        at_or_before = [s for s in self.snapshots if s.iteration <= ideal]
        snapshot = max(at_or_before, key=lambda s: s.iteration) if at_or_before else min(
            self.snapshots, key=lambda s: s.iteration
        )
        snapshot.restore(trainer)
        while self.snapshots and self.snapshots[-1].iteration > snapshot.iteration:
            self.snapshots.pop()
        return snapshot.iteration

    def _rewind_arithmetic(self, trainer, ideal: int) -> int:
        if not self._steps:
            raise RecoveryError("no step history captured yet; cannot rewind")
        oldest = min(s["iteration"] for s in self._steps)
        target = max(ideal, oldest)
        steps = [s for s in self._steps if s["iteration"] >= target]
        optimizer = trainer.optimizer
        for entry in sorted(steps, key=lambda s: -s["iteration"]):
            self._invert_step(optimizer, entry)
            # Restore the small module state (BatchNorm moving statistics)
            # captured before the iteration ran.
            for arena, extra in zip(trainer.arenas, entry["extra"]):
                arena.load_extra(extra)
            self._steps.remove(entry)
        # Float32 overflow is not invertible: if the corrupted state
        # saturated to inf (e.g. Adam's v after squaring a huge faulty
        # gradient), the pre-fault value is destroyed and (inf - x)/beta
        # yields inf/NaN.  Surface this instead of resuming from garbage —
        # the snapshot strategy handles these cases.
        if not np.all(np.isfinite(optimizer.arena.param)):
            raise RecoveryError(
                "arithmetic rewind produced non-finite weights: the "
                "corrupted state overflowed and is not invertible; use "
                "the snapshot recovery strategy"
            )
        for buf in optimizer.slots.values():
            if not np.all(np.isfinite(buf)):
                raise RecoveryError(
                    "arithmetic rewind produced non-finite optimizer "
                    "state: the corrupted state overflowed and is not "
                    "invertible; use the snapshot recovery strategy"
                )
        trainer.iteration = target
        trainer.backend.broadcast()
        return target

    @staticmethod
    def _invert_step(optimizer, entry: dict) -> None:
        """Undo one optimizer step from its recorded updates/gradient.

        All writes are in place, into the parameters' arena views and the
        optimizer's slot segments (see :mod:`repro.state`)."""
        updates, g = entry["updates"], entry["grad"]
        if g is None or len(updates) != len(optimizer.params):
            raise RecoveryError("incomplete step record; cannot invert")
        slots = optimizer.slots
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for param, update in zip(optimizer.params, updates):
                np.add(param.data, update, out=param.data, casting="unsafe")
            if isinstance(optimizer, Adam):
                b1, b2 = optimizer.beta1, optimizer.beta2
                m, v = slots["m"], slots["v"]
                np.subtract(m, (1 - b1) * g, out=m)
                np.divide(m, b1, out=m)
                # Catastrophic cancellation can push the inverted second
                # moment slightly negative (v is a sum of squares, so
                # its true value is non-negative); clamp to the
                # physical domain or the next sqrt(v) would be NaN.
                np.subtract(v, (1 - b2) * g * g, out=v)
                np.divide(v, b2, out=v)
                np.maximum(v, 0.0, out=v)
            elif isinstance(optimizer, SGD) and optimizer.momentum > 0:
                vel = slots["velocity"]
                np.subtract(vel, g, out=vel, casting="unsafe")
                np.divide(vel, optimizer.momentum, out=vel)
            elif isinstance(optimizer, RMSProp):
                sq = slots["sq"]
                np.subtract(sq, (1 - optimizer.rho) * g * g, out=sq)
                np.divide(sq, optimizer.rho, out=sq)
                np.maximum(sq, 0.0, out=sq)
        optimizer.iteration -= 1


class MitigationHook:
    """A guard + recovery wired together: the deployable technique.

    When the guard (Algorithm 1's detector, or any other ``Guard``) fires
    in an iteration, rewinds two iterations and lets the training loop
    re-execute them.  The transient fault does not recur, the re-executed
    iterations are clean, and training continues — total cost is two
    re-executed iterations plus the per-iteration checks.
    """

    def __init__(self, detector, recovery: RecoveryManager | None = None):
        self.detector = detector
        self.recovery = recovery or RecoveryManager()

    def before_iteration(self, trainer, iteration: int) -> None:
        self.recovery.before_iteration(trainer, iteration)
        self.detector.before_iteration(trainer, iteration)

    def after_backward(self, trainer, iteration: int) -> None:
        self.detector.after_backward(trainer, iteration)

    def after_step(self, trainer, iteration: int) -> None:
        self.recovery.after_step(trainer, iteration)
        self.detector.after_step(trainer, iteration)

    def after_iteration(self, trainer, iteration: int, loss: float, acc: float) -> None:
        """Trainer hook: on a firing, rewind and resume cleanly."""
        self.detector.after_iteration(trainer, iteration, loss, acc)
        if not self.detector.fired_in(iteration):
            return
        resume = self.recovery.rewind(trainer, detected_at=iteration)
        trainer.tracer.emit(ROLLBACK, iteration=iteration,
                            resume_iteration=resume,
                            strategy=self.recovery.strategy,
                            recoveries=self.recovery.recoveries)
        # The training loop increments ``iteration`` after this hook; land
        # exactly on the resume point and tell the loop the non-finite
        # loss of the rolled-back iteration no longer applies.
        trainer.iteration = resume - 1
        trainer.signal_recovered()
