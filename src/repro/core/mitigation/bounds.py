"""Algorithm 1: mathematically derived detection bounds.

Part I — gradient-history bound.  Under the paper's assumed DNN
properties (He-initialized layers, normalized inputs,
softmax-cross-entropy, Gaussian weight gradients), the input gradient of
every layer is bounded by ``1/m`` elementwise (``m`` = mini-batch size),
so ``Var[dL/dw] <= n_l / m^2`` where ``n_l`` is the number of partial
sums accumulated into one weight-gradient value.  Adam's first-moment
history ``m_t`` is a convex combination of gradients, hence
``m_t ~ N(0, n_l/m^2)`` and

    P(|m_t| > 20 * sqrt(n_l) / m)  <  3e-89.

The second moment ``v_t`` averages *squared* gradients, so its bound is
the square of the first-moment bound.

Part II — moving-variance bound.  With ``Var[w^l] <= 1/N_l + eta^2 k^2``
(``k = sqrt(1-beta2^t)/(1-beta1^t)``), layer output variance satisfies
``Var[y^l] <= (1 + N_l eta^2 k^2)^l``, and since mvar is a convex
combination of per-iteration input variances, the same bound applies to
``mvar`` at depth ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.conv import Conv2D
from repro.nn.linear import Dense
from repro.nn.module import Module
from repro.nn.normalization import BatchNorm

#: The 20-sigma multiplier of Algorithm 1 (P(|N(0,1)| > 20) < 3e-89).
SIGMA_MULTIPLIER = 20.0


@dataclass(frozen=True)
class DetectionBounds:
    """The two bounds the detector checks every iteration.

    ``history_bound`` applies to first-moment history values (Adam ``m``,
    SGD velocity); its square applies to second-moment values (Adam ``v``,
    RMSProp ``sq``).  ``mvar_bound`` applies to BatchNorm moving
    statistics.  ``slack`` multiplies both at check time, absorbing the
    deviation of real workloads from the idealized Properties 1-4 — the
    faulty magnitudes of Table 4 (1e8-1e38) dwarf any reasonable slack.
    """

    history_bound: float
    mvar_bound: float
    slack: float = 100.0

    @property
    def effective_history_bound(self) -> float:
        return self.history_bound * self.slack

    @property
    def effective_second_moment_bound(self) -> float:
        return (self.history_bound * self.slack) ** 2

    @property
    def effective_mvar_bound(self) -> float:
        return self.mvar_bound * self.slack


def _gradient_partial_sums(module: Module) -> int | None:
    """``n_l``: partial sums per weight-gradient value for one layer.

    For a Dense layer, ``dW = x^T @ dy`` accumulates one term per row of
    ``x`` (batch x positions).  For Conv2D, one term per im2col row
    (batch x output spatial positions).  Uses the shapes cached by the
    layer's most recent forward pass.
    """
    if isinstance(module, Dense):
        x = module._x
        if x is None:
            return None
        return int(np.prod(x.shape[:-1]))
    if isinstance(module, Conv2D):
        if module._col is None:
            return None
        return int(module._col.shape[0])
    return None


def derive_history_bound(model: Module, example_input: np.ndarray, batch_size: int) -> float:
    """Part I of Algorithm 1: ``20 * sqrt(max_l n_l) / m``.

    Runs one forward pass with ``example_input`` so every layer caches its
    shapes, then takes the worst (largest) ``n_l`` over all MAC layers.
    The pass runs in eval mode and puts every module's mode back: a
    training-mode forward would update BatchNorm moving statistics and
    draw from Dropout streams, and deriving a bound must leave the
    training state it bounds untouched (Sec. 5.1: the detector reads).
    """
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive: {batch_size}")
    modes = [(module, module.training) for module in model.modules()]
    model.eval()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            model.forward(example_input)
    finally:
        for module, training in modes:
            module.training = training
    worst = 1
    for module in model.modules():
        n_l = _gradient_partial_sums(module)
        if n_l is not None:
            worst = max(worst, n_l)
    return SIGMA_MULTIPLIER * float(np.sqrt(worst)) / float(batch_size)


def derive_mvar_bound(
    model: Module,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    iteration: int = 1000,
) -> float:
    """Part II of Algorithm 1: ``(1 + N_l * eta^2 * k^2)^l`` at the
    deepest BatchNorm layer.

    ``N_l`` is each preceding MAC layer's fan-in (partial sums per output
    neuron); ``l`` counts MAC layers from the input.  Returns 0.0 for
    models without BatchNorm (the mvar condition is then impossible and
    the detector skips the check).
    """
    t = max(int(iteration), 1)
    k = float(np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t))
    bound = 1.0
    deepest_bn_bound = 0.0
    for module in model.modules():
        if isinstance(module, (Dense, Conv2D)):
            bound *= 1.0 + module.fan_in * (lr**2) * (k**2)
        elif isinstance(module, BatchNorm):
            deepest_bn_bound = bound
    return deepest_bn_bound


def derive_bounds_for_trainer(trainer, slack: float = 100.0) -> DetectionBounds:
    """Convenience: derive both bounds from a live trainer's workload."""
    spec = trainer.spec
    shard = max(spec.batch_size // trainer.num_devices, 1)
    example = spec.train_data.inputs[:shard]
    history = derive_history_bound(trainer.master, example, spec.batch_size)
    optimizer = trainer.optimizer
    beta1 = getattr(optimizer, "beta1", 0.9)
    beta2 = getattr(optimizer, "beta2", 0.999)
    mvar = derive_mvar_bound(
        trainer.master, lr=optimizer.lr, beta1=beta1, beta2=beta2,
        iteration=max(spec.iterations, 1),
    )
    return DetectionBounds(history_bound=history, mvar_bound=mvar, slack=slack)
