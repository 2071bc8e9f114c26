"""Hardware-failure detection by bound checking (Sec. 5.1).

Every iteration, the detector compares

* the optimizer's first-moment history values against Algorithm 1's
  gradient-history bound,
* its second-moment values against the squared bound, and
* every device's BatchNorm moving statistics against the mvar bound,

and raises a detection event if any is out of bounds.  Because the
necessary conditions occur within two training iterations of a hardware
failure (Table 4), the error-detection latency is bounded by two
iterations — the property that makes two-iteration re-execution a
sufficient recovery.

The check is ultra-light-weight: a handful of ``max |.|`` reductions per
iteration (the paper measured 0.003%-0.025% overhead; the corresponding
bench here is ``benchmarks/bench_sec5_overheads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mitigation.bounds import DetectionBounds, derive_bounds_for_trainer
from repro.nn.normalization import batchnorm_layers, peak_moving_statistic
from repro.observe import DETECTOR_FIRED
from repro.optim.base import max_abs


@dataclass
class DetectionEvent:
    """One bound violation."""

    iteration: int
    condition: str  # "first_moment", "second_moment", or "mvar"
    magnitude: float
    bound: float

    def describe(self) -> str:
        return (
            f"iteration {self.iteration}: {self.condition} magnitude "
            f"{self.magnitude:.3e} exceeds bound {self.bound:.3e}"
        )


class HardwareFailureDetector:
    """Trainer hook implementing the Sec. 5.1 detection technique."""

    def __init__(self, bounds: DetectionBounds | None = None):
        """``bounds=None`` derives them from the trainer on first use
        (Algorithm 1 needs one forward pass to read layer shapes; it runs
        in eval mode and leaves the training state alone).  A campaign
        derives them once and hands every experiment's detector the
        same object."""
        self.bounds = bounds
        self.events: list[DetectionEvent] = []
        #: Total number of bound checks performed (overhead accounting).
        self.checks = 0
        self._fired_this_iteration = False

    @staticmethod
    def _violates(value: float, bound: float) -> bool:
        """NaN-safe bound check: NaN fails ``value <= bound`` and counts
        as a violation (a NaN history value is maximally anomalous)."""
        return not (value <= bound)

    # ------------------------------------------------------------------
    # The per-iteration check
    # ------------------------------------------------------------------
    def check(self, trainer, iteration: int) -> DetectionEvent | None:
        """Run all bound checks once; returns the first violation if any."""
        if self.bounds is None:
            self.bounds = derive_bounds_for_trainer(trainer)
        self.checks += 1
        optimizer = trainer.optimizer
        history_bound = self.bounds.effective_history_bound
        for arr in optimizer.first_moment_arrays():
            value = float(np.abs(arr).max()) if arr.size else 0.0
            if self._violates(value, history_bound):
                return DetectionEvent(iteration, "first_moment",
                                      max_abs([arr]), history_bound)
        second_bound = self.bounds.effective_second_moment_bound
        for arr in optimizer.second_moment_arrays():
            # abs() also flags corrupted *negative* second moments, which
            # are as anomalous as huge ones (v is a sum of squares).
            value = float(np.abs(arr).max()) if arr.size else 0.0
            if self._violates(value, second_bound):
                return DetectionEvent(iteration, "second_moment",
                                      max_abs([arr]), second_bound)
        if trainer.spec.has_batchnorm and self.bounds.mvar_bound > 0.0:
            mvar_bound = self.bounds.effective_mvar_bound
            # One-pass screen per replica (NaN propagates through the max
            # and violates); the layers are walked only to name the first
            # violating one.
            for replica in trainer.replicas:
                if not self._violates(peak_moving_statistic(replica), mvar_bound):
                    continue
                for layer in batchnorm_layers(replica):
                    var = float(np.abs(layer.moving_var).max())
                    mean = float(np.abs(layer.moving_mean).max())
                    if self._violates(var, mvar_bound) or self._violates(mean, mvar_bound):
                        return DetectionEvent(iteration, "mvar",
                                              layer.history_magnitude(), mvar_bound)
        return None

    # ------------------------------------------------------------------
    # Trainer hook interface
    # ------------------------------------------------------------------
    def after_step(self, trainer, iteration: int) -> None:
        self._fired_this_iteration = False
        event = self.check(trainer, iteration)
        if event is not None:
            self.events.append(event)
            trainer.record.detections.append(iteration)
            self._fired_this_iteration = True
            tracer = getattr(trainer, "tracer", None)
            if tracer is not None:
                tracer.emit(
                    DETECTOR_FIRED, iteration=iteration,
                    condition=event.condition, magnitude=event.magnitude,
                    bound=event.bound)

    @property
    def fired(self) -> bool:
        """True once any detection event has been recorded."""
        return bool(self.events)

    def fired_at(self) -> int | None:
        """Iteration of the first detection event, if any."""
        return self.events[0].iteration if self.events else None

    def detection_latency(self, fault_iteration: int) -> int | None:
        """Iterations between the fault and the first detection."""
        at = self.fired_at()
        return None if at is None else at - int(fault_iteration)
