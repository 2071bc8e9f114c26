"""Gradient clipping baseline (Sec. 6).

Gradient clipping bounds gradient magnitudes before the optimizer step.
The paper's point: clipping "cannot be used to mitigate all unexpected
training outcomes caused by hardware failures, because hardware failures
can perturb gradient history / mvar values without affecting gradient
values" — e.g. a fault injected directly into a weight-gradient tensor is
clipped, but a fault that lands in the forward pass and inflates mvar, or
one that strikes the optimizer's update operation, is untouched.
"""

from __future__ import annotations

import numpy as np

from repro.core.mitigation.guard import Detection, Guard


def _global_norm(params) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params)
        return float(np.sqrt(total))


class GradientClipper(Guard):
    """Trainer hook clipping the global gradient norm before the step.

    It fires each iteration it clips, with the norm it found, so benches
    can report both the protective effect and the interference with
    normal training.
    """

    technique = "clipping"

    def __init__(self, max_norm: float = 5.0):
        if max_norm <= 0:
            raise ValueError(f"max_norm must be positive: {max_norm}")
        super().__init__()
        self.max_norm = float(max_norm)

    def after_backward(self, trainer, iteration: int) -> None:
        params = list(trainer.master.parameters())
        norm = _global_norm(params)
        if not np.isfinite(norm):
            # Non-finite gradients: zero them (the strongest clip) —
            # clipping has no better option here.  In-place so arena-bound
            # gradient views stay coherent.
            for param in params:
                np.nan_to_num(param.grad, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            norm = _global_norm(params)
        if norm > self.max_norm:
            scale = self.max_norm / (norm + 1e-12)
            for param in params:
                np.multiply(param.grad, scale, out=param.grad)
            self.fire(trainer, Detection(iteration, self.technique, "grad_norm",
                                         norm, self.max_norm))
