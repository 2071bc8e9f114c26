"""Normalization layers.

BatchNorm's *moving variance* (``mvar``) is one of the two history terms at
the heart of the paper: ``mvar_{t} = decay * mvar_{t-1} + (1 - decay) *
input_variance`` (Sec. 4.2.2).  Large absolute mvar values are the
necessary condition for the SharpDegrade, LowTestAccuracy, and short-term
INFs/NaNs outcomes (Table 4), and the detection technique bounds them
(Algorithm 1, part II).

The moving statistics here are first-class inspectable state:
:meth:`BatchNorm.history_magnitude` returns the largest absolute moving
statistic, which the detector and the propagation tracer both read.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.initializers import ones, zeros
from repro.nn.module import Module


class BatchNorm(Module):
    """Batch normalization over (N, C) or (N, C, H, W) inputs.

    Parameters
    ----------
    num_features:
        Channel count ``C``.
    momentum:
        The *decay factor* applied to the moving statistics.  The paper's
        workloads use 0.9 except Resnet_LargeDecay which uses 0.99 — the
        configuration whose slow mvar correction produces LowTestAccuracy.
    """

    lane_native = True

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.add_param("gamma", ones((num_features,)))
        self.add_param("beta", zeros((num_features,)))
        self.moving_mean = np.zeros(num_features, dtype=np.float32)
        self.moving_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    # ------------------------------------------------------------------
    # Persistent state
    # ------------------------------------------------------------------
    def extra_state(self) -> dict[str, np.ndarray]:
        return {"moving_mean": self.moving_mean, "moving_var": self.moving_var}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        self.moving_mean = np.asarray(state["moving_mean"], dtype=np.float32).copy()
        self.moving_var = np.asarray(state["moving_var"], dtype=np.float32).copy()

    def history_magnitude(self) -> float:
        """Largest absolute moving statistic (the detector's |mvar| probe)."""
        mags = (float(np.abs(self.moving_var).max()), float(np.abs(self.moving_mean).max()))
        return max(mags) if all(map(math.isfinite, mags)) else float("inf")

    # ------------------------------------------------------------------
    # Shape plumbing: reduce over every axis except the channel axis and
    # the lanes.  Axes count from the end, so a leading lane axis shifts
    # nothing and per-lane statistics come out as ``lanes + (C,)``.
    # ------------------------------------------------------------------
    #: trailing dims after the channel axis -> (reduce axes, index that
    #: broadcasts a ``lanes + (C,)`` statistic against the input).
    _LAYOUTS = {
        0: ((-2,), (..., None, slice(None))),
        2: ((-4, -2, -1), (..., None, slice(None), None, None)),
    }

    def _layout(self, x: np.ndarray) -> tuple[tuple, tuple]:
        try:
            return self._LAYOUTS[x.ndim - len(self.lanes) - 2]
        except KeyError:
            raise ValueError(
                f"BatchNorm expects 2D or 4D input, got {x.ndim - len(self.lanes)}D"
            ) from None

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes, expand = self._layout(x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.training:
                # ``x.mean`` then ``x.var`` would reduce the mean twice and
                # centre twice; these are the same ufunc calls NumPy's
                # ``_mean``/``_var`` make (sum, then divide by the intp
                # count), made once, with ``centered`` kept for ``xhat``.
                count = np.intp(math.prod(x.shape[a] for a in axes))
                mean = np.add.reduce(x, axis=axes, dtype=np.float32, keepdims=True)
                np.true_divide(mean, count, out=mean, casting="unsafe")
                centered = x - mean
                var = np.add.reduce(centered * centered, axis=axes, dtype=np.float32)
                np.true_divide(var, count, out=var, casting="unsafe")
                mean = mean.reshape(var.shape)
                # Moving statistics update: the history-term recurrence of
                # Sec. 4.2.2.  Computed in float32 so faulty magnitudes
                # overflow to inf exactly as they would on the accelerator.
                self.moving_mean = (
                    self.momentum * self.moving_mean + (1.0 - self.momentum) * mean
                ).astype(np.float32, copy=False)
                self.moving_var = (
                    self.momentum * self.moving_var + (1.0 - self.momentum) * var
                ).astype(np.float32, copy=False)
            else:
                var = self.moving_var
                centered = x - self.moving_mean[expand]
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = np.multiply(centered, inv_std[expand], out=centered)
            out = self.gamma.data[expand] * xhat
            out += self.beta.data[expand]
            out = out.astype(np.float32, copy=False)
        if self.training:
            self._cache = (xhat, inv_std, axes, expand)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, axes, expand = self._cache
        m = float(math.prod(xhat.shape[a] for a in axes))
        dgamma = (grad * xhat).sum(axis=axes).astype(np.float32, copy=False)
        dbeta = grad.sum(axis=axes).astype(np.float32, copy=False)
        dgamma = self.apply_fault_hook("weight_grad", dgamma, param="gamma")
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        dxhat = grad * self.gamma.data[expand]
        with np.errstate(over="ignore", invalid="ignore"):
            # inv / m * (m * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
            # each product and difference written over a dead operand of
            # its own result dtype.
            lhs = m * dxhat
            lhs -= dxhat.sum(axis=axes, keepdims=True)
            rhs = dxhat * xhat
            np.multiply(xhat, rhs.sum(axis=axes, keepdims=True), out=rhs)
            np.subtract(lhs, rhs, out=rhs)
            dx = np.multiply(inv_std[expand] / m, rhs, out=rhs).astype(np.float32, copy=False)
        return self.apply_fault_hook("input_grad", dx)


class LayerNorm(Module):
    """Layer normalization over the last dimension (Transformer blocks).

    LayerNorm carries no moving statistics, so the mvar necessary condition
    cannot fire in a pure-LayerNorm workload — which is why the Transformer
    workload's latent outcomes in the paper all come from optimizer history
    values.
    """

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.add_param("gamma", ones((num_features,)))
        self.add_param("beta", zeros((num_features,)))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
            var = x.var(axis=-1, keepdims=True, dtype=np.float32)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * inv_std
            out = (self.gamma.data * xhat + self.beta.data).astype(np.float32)
        self._cache = (xhat, inv_std)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._cache
        m = float(xhat.shape[-1])
        reduce_axes = tuple(range(xhat.ndim - 1))
        dgamma = (grad * xhat).sum(axis=reduce_axes).astype(np.float32)
        dbeta = grad.sum(axis=reduce_axes).astype(np.float32)
        dgamma = self.apply_fault_hook("weight_grad", dgamma, param="gamma")
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        dxhat = grad * self.gamma.data
        with np.errstate(over="ignore", invalid="ignore"):
            dx = (
                inv_std
                / m
                * (
                    m * dxhat
                    - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
                )
            ).astype(np.float32)
        return self.apply_fault_hook("input_grad", dx)


def batchnorm_layers(model: Module) -> list[BatchNorm]:
    """All BatchNorm layers in a model, in traversal order."""
    return [m for _, m in model.instances_of(BatchNorm)]


def peak_moving_statistic(model: Module) -> float:
    """``max |moving statistic|`` over every BatchNorm layer of a model in
    one pass — one concatenate and one reduction, where a walk costs a
    handful of NumPy calls per layer.  A NaN statistic comes back as NaN;
    0.0 for a model with no BatchNorm layers."""
    layers = batchnorm_layers(model)
    if not layers:
        return 0.0
    stats = np.concatenate([stat for bn in layers
                            for stat in (bn.moving_var, bn.moving_mean)],
                           axis=None)
    return float(np.abs(stats).max())


def max_moving_variance(model: Module) -> float:
    """The largest |moving statistic| across all BatchNorm layers
    (``inf`` when any is not finite).

    This is the quantity the detection technique compares against the
    Algorithm 1 part-II bound each iteration.  Returns 0.0 for models with
    no BatchNorm layers (e.g. Resnet_NoBN, NFNet), for which the mvar
    necessary condition is structurally impossible.
    """
    peak = peak_moving_statistic(model)
    return peak if math.isfinite(peak) else float("inf")
