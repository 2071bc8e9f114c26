"""Activation layers with explicit backward passes.

Activations participate in the paper's masking analysis (Sec. 2): ReLU can
mask a faulty negative value by setting it to zero, while unbounded
activations propagate large faulty magnitudes unchanged — which is why
range-restriction baselines (Ranger) clamp activations.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


def _positive_mask(x: np.ndarray) -> np.ndarray:
    """int32 mask of ``x > 0``: all bits set where it holds, none where
    it does not (NaN, -0.0 and +0.0 among them)."""
    mask = (x > 0).astype(np.int32)
    return np.negative(mask, out=mask)


def _bits(x: np.ndarray) -> np.ndarray:
    """The float32 bit patterns of ``x`` (another dtype is cast once, here,
    so what follows — ScaledReLU's gain included — is float32 work)."""
    return np.asarray(x, dtype=np.float32).view(np.int32)


def _keep(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``where(mask, x, +0.0)`` as float32, by ANDing the float bits with
    a :func:`_positive_mask` — the same bytes for NaN, +-inf and -0.0,
    without ``np.where``'s per-element branch."""
    return (_bits(x) & mask).view(np.float32)


def _blend(mask: np.ndarray, x: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``where(mask, x, other)`` as float32, on the float bits."""
    other = _bits(other)
    picked = _bits(x) ^ other
    picked &= mask
    picked ^= other
    return picked.view(np.float32)


class ReLU(Module):
    """Rectified linear unit: max(0, x)."""

    lane_native = True

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = _positive_mask(x)
        return self.apply_fault_hook("forward", _keep(self._mask, x))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.apply_fault_hook("input_grad", _keep(self._mask, grad))


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope (YOLO uses 0.1)."""

    lane_native = True

    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = _positive_mask(x)
        out = _blend(self._mask, x, self.negative_slope * x)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = _blend(self._mask, grad, self.negative_slope * grad)
        return self.apply_fault_hook("input_grad", out)


class Sigmoid(Module):
    """Logistic sigmoid; saturates, so it can mask large faulty values."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise formulation.
        out = np.empty_like(x, dtype=np.float32)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = (grad * self._out * (1.0 - self._out)).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x).astype(np.float32)
        return self.apply_fault_hook("forward", self._out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = (grad * (1.0 - self._out**2)).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation), used by Transformer."""

    _C = np.float32(np.sqrt(2.0 / np.pi))

    def __init__(self):
        super().__init__()
        self._x: np.ndarray | None = None
        self._tanh: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        self._tanh = np.tanh(inner)
        out = (0.5 * x * (1.0 + self._tanh)).astype(np.float32)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, t = self._x, self._tanh
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
        out = (grad * d).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class SiLU(Module):
    """Sigmoid linear unit (swish), used by EfficientNet."""

    def __init__(self):
        super().__init__()
        self._x: np.ndarray | None = None
        self._sig: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        sig = np.empty_like(x, dtype=np.float32)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        self._sig = sig
        out = (x * sig).astype(np.float32)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        s = self._sig
        d = s + self._x * s * (1.0 - s)
        out = (grad * d).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class ScaledReLU(Module):
    """Variance-preserving ReLU used by normalizer-free networks (NFNet).

    Multiplies the ReLU output by ``sqrt(2 / (1 - 1/pi))`` so the output
    variance matches the input variance, replacing BatchNorm's variance
    control — this is what makes NFNet a "no normalization layers" workload
    in the paper's taxonomy (its mvar necessary condition cannot fire).
    """

    GAMMA = np.float32(np.sqrt(2.0 / (1.0 - 1.0 / np.pi)))

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = _positive_mask(x)
        return self.apply_fault_hook("forward", _keep(self._mask, x) * self.GAMMA)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.apply_fault_hook("input_grad", _keep(self._mask, grad) * self.GAMMA)
