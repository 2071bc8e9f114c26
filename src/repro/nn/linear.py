"""Dense (fully-connected) layer and shape utilities."""

from __future__ import annotations

import numpy as np

from repro.nn import config
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module


class Dense(Module):
    """Fully-connected layer: ``y = x @ W + b``.

    The matmul goes through :func:`repro.nn.config.matmul`, so it follows
    the accelerator's MAC precision (bfloat16 inputs, FP32 accumulate) when
    mixed precision is enabled.

    Fault-injection op sites: the forward output, the weight gradient
    (``dW = x^T @ dy``), and the input gradient (``dx = dy @ W^T``) — the
    three operation classes of Table 1 (Layer_Output, and the two
    Layer_Input roles in the backward pass).  Under lanes the input is
    ``(L, n, in_features)``: each lane's rows meet that lane's weights.
    """

    lane_native = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 use_bias: bool = True):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.add_param("weight", he_normal(rng, (in_features, out_features), fan_in=in_features))
        if use_bias:
            self.add_param("bias", zeros((out_features,)))
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    @property
    def fan_in(self) -> int:
        """Number of partial sums per output neuron (``N_l`` in Algorithm 1)."""
        return self.in_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        if self.training or x.ndim != len(self.lanes) + 2:
            out = config.matmul(x, self.weight.data)
        else:
            # One GEMM per row, as a wider input already gets one per
            # sample: an image's output bytes do not depend on its batch
            # (DESIGN.md decision 16).
            out = config.matmul(x[..., None, :],
                                self.weight.data[..., None, :, :])[..., 0, :]
        if self.use_bias:
            out = out + self.bias.data[..., None, :]
        out = out.astype(np.float32, copy=False)
        out = self.apply_fault_hook("forward", out)
        # Cached post-hook so integrity checkers (ABFT) see what the
        # accelerator actually produced, faults included.
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        # Flatten any leading batch dimensions for the weight gradient.
        x2 = x.reshape(*self.lanes, -1, self.in_features)
        g2 = grad.reshape(*self.lanes, -1, self.out_features)
        dw = config.matmul(x2.swapaxes(-1, -2), g2).astype(np.float32, copy=False)
        dw = self.apply_fault_hook("weight_grad", dw, param="weight")
        self.weight.grad += dw
        if self.use_bias:
            db = g2.sum(axis=-2).astype(np.float32, copy=False)
            self.bias.grad += db
        if not self.wants_input_grad:
            return None
        dx = config.matmul(grad, self.weight.data.swapaxes(-1, -2)).astype(np.float32, copy=False)
        return self.apply_fault_hook("input_grad", dx)


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    lane_native = True

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(*x.shape[:len(self.lanes) + 1], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout.  Draws its mask from a per-layer seeded generator.

    The recovery technique (Sec. 5.2) requires re-execution to reproduce
    random draws: "recording the seeds used to initialize random variables
    ... and applying them during re-execution".  :meth:`reseed` restores the
    generator so a replayed iteration draws identical masks.
    """

    def __init__(self, rate: float, seed=0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = float(rate)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def reseed(self, seed) -> None:
        """Reset the mask generator (used when replaying an iteration).

        ``seed`` may be an int or a tuple of ints (NumPy SeedSequence
        entropy), letting callers derive per-(iteration, device) seeds.
        """
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return (x * self._mask).astype(np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return (grad * self._mask).astype(np.float32)
