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

import numpy as np

from repro.core.mitigation.bounds import DetectionBounds, derive_bounds_for_trainer
from repro.core.mitigation.guard import ALG1, Detection, Guard
from repro.nn.normalization import batchnorm_layers, peak_moving_statistic
from repro.optim.base import max_abs


class HardwareFailureDetector(Guard):
    """Trainer hook implementing the Sec. 5.1 detection technique."""

    technique = ALG1

    def __init__(self, bounds: DetectionBounds | None = None):
        """``bounds=None`` derives them from the trainer on first use
        (Algorithm 1 needs one forward pass to read layer shapes; it runs
        in eval mode and leaves the training state alone).  A campaign
        derives them once and hands every experiment's detector the
        same object."""
        super().__init__()
        self.bounds = bounds
        #: Total number of bound checks performed (overhead accounting).
        self.checks = 0

    @staticmethod
    def _violates(value: float, bound: float) -> bool:
        """NaN-safe bound check: NaN fails ``value <= bound`` and counts
        as a violation (a NaN history value is maximally anomalous)."""
        return not (value <= bound)

    def check(self, trainer, iteration: int) -> Detection | None:
        """Run all bound checks once; returns the first violation if any."""
        if self.bounds is None:
            self.bounds = derive_bounds_for_trainer(trainer)
        self.checks += 1
        optimizer = trainer.optimizer
        # abs() also flags corrupted *negative* second moments, which are
        # as anomalous as huge ones (v is a sum of squares).
        for condition, arrays, bound in (
                ("first_moment", optimizer.first_moment_arrays(),
                 self.bounds.effective_history_bound),
                ("second_moment", optimizer.second_moment_arrays(),
                 self.bounds.effective_second_moment_bound)):
            for arr in arrays:
                value = float(np.abs(arr).max()) if arr.size else 0.0
                if self._violates(value, bound):
                    return Detection(iteration, ALG1, condition,
                                     max_abs([arr]), bound)
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
                        return Detection(iteration, ALG1, "mvar",
                                         layer.history_magnitude(), mvar_bound)
        return None

    def after_step(self, trainer, iteration: int) -> None:
        """Trainer hook: check after the optimizer step, when this
        iteration's history values and moving statistics exist."""
        event = self.check(trainer, iteration)
        if event is not None:
            self.fire(trainer, event)
