"""Algorithm-based fault tolerance (ABFT) baseline (Sec. 6).

The paper extends the checksum-based ABFT of Zhao et al. [94] from
inference to training and reports 463-485 changed lines and 5-7%
performance cost on TPUs.  This module implements the same idea for the
mini framework: for every Dense/Conv2D layer, the *produced* forward
output (cached post-fault-hook, exactly what the accelerator wrote) is
verified against a checksum identity computed from the layer's operands:

    for y = x @ W + b:   sum_j y[r, j]  ==  x[r, :] . (W @ 1) + sum(b)

— one extra matrix-vector product and one reduction per layer per
iteration, a few percent of the matmul cost.  The operands come from the
model instance that ran the forward, which the execution backend names
per device: the device's own replica on the solo loop, one lane of the
program replica on the (default) lane step.

What ABFT *cannot* see: faults that corrupt optimizer history values or
BatchNorm moving statistics without corrupting a checked matmul output —
one reason the paper's bound-checking technique reaches higher
latent-outcome coverage at a fraction of the cost.  The weight-gradient
check here verifies finiteness only (the gradient operand is not cached),
mirroring the partial coverage the paper describes for training ABFT.
"""

from __future__ import annotations

import numpy as np

from repro.core.mitigation.guard import Detection, Guard
from repro.nn.conv import Conv2D
from repro.nn.linear import Dense


class ABFTChecker(Guard):
    """Trainer hook verifying per-layer forward checksums each iteration;
    every violating layer fires, with its relative checksum error."""

    technique = "abft"

    def __init__(self, tolerance: float = 1e-2, check_weight_grads: bool = True):
        super().__init__()
        self.tolerance = float(tolerance)
        self.check_weight_grads = bool(check_weight_grads)
        #: Verifications actually performed: forward checksums compared
        #: plus weight-gradient finiteness checks.
        self.checks = 0

    @staticmethod
    def _relative_error(row_sum: np.ndarray, checksum: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(row_sum - checksum)
            scale = np.abs(checksum).max() + np.abs(row_sum).max() + 1.0
            if not (np.all(np.isfinite(row_sum)) and np.all(np.isfinite(checksum))):
                # inf - inf produces NaN; any non-finite side is a violation
                # unless both sides are identically non-finite.
                if np.array_equal(np.isfinite(row_sum), np.isfinite(checksum)) and np.all(
                    diff[np.isfinite(diff)] == 0.0
                ):
                    return 0.0
                return float("inf")
            return float(diff.max() / scale)

    def _verify_dense(self, module: Dense, lane) -> float | None:
        if module._x is None or module._out is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            row_sum = module._out[lane].sum(axis=-1)
            checksum = module._x[lane] @ module.weight.data[lane].sum(axis=1)
            if module.use_bias:
                checksum = checksum + module.bias.data[lane].sum()
        return self._relative_error(row_sum, checksum)

    def _verify_conv(self, module: Conv2D, lane) -> float | None:
        if module._col is None or module._out is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            # Output rows in im2col order: (N*OH*OW, Cout).
            out = module._out[lane]
            rows = out.transpose(0, 2, 3, 1).reshape(-1, out.shape[1])
            row_sum = rows.sum(axis=-1)
            w_row = module.weight.data[lane].reshape(module.out_channels, -1)
            checksum = module._col[lane] @ w_row.sum(axis=0)
            if module.use_bias:
                checksum = checksum + module.bias.data[lane].sum()
        return self._relative_error(row_sum, checksum)

    # Checks run after the backward pass but BEFORE the optimizer step:
    # the checksum identity relates each layer's cached operands to the
    # weights used in that forward pass, and the step would move the
    # weights out from under it.  The operands are read from the model
    # instance that ran the forward (``ExecutionBackend.forward_caches``):
    # the device's replica under the solo loop, its lane of the program
    # replica under the lane step (``lane`` indexes every operand; ``...``
    # takes a replica's whole tensors).  Weight gradients are each
    # replica's own ``param.grad``, the row the lane step wrote.
    def after_backward(self, trainer, iteration: int) -> None:
        for device, replica in enumerate(trainer.replicas):
            ran = trainer.backend.forward_caches(device)
            if ran is None:
                raise RuntimeError(
                    f"ABFT has no forward operands for device {device} at "
                    f"iteration {iteration} on the {trainer.backend.name!r} "
                    "backend: the program replica keeps the last block of "
                    "lanes only (run ABFT with experiment_batch=1)")
            model, lane = ran
            for (name, module), (_, operands) in zip(
                    replica.named_modules(), model.named_modules()):
                if isinstance(module, Dense):
                    err = self._verify_dense(operands, lane)
                elif isinstance(module, Conv2D):
                    err = self._verify_conv(operands, lane)
                else:
                    continue
                if err is not None:
                    self.checks += 1
                    if not np.isfinite(err) or err > self.tolerance:
                        self.fire(trainer, Detection(
                            iteration, self.technique, name, err, self.tolerance))
                if self.check_weight_grads:
                    self.checks += 1
                    with np.errstate(over="ignore", invalid="ignore"):
                        total = float(np.abs(module.weight.grad).sum())
                    if not np.isfinite(total):
                        self.fire(trainer, Detection(
                            iteration, self.technique, f"{name}.weight_grad",
                            float("inf"), self.tolerance))
