"""Adam-family optimizers with exposed gradient-history terms.

Adam (Eq. 1 of the paper) maintains two history terms per parameter:

* ``m_t = beta1 * m_{t-1} + (1 - beta1) * g_t``
* ``v_t = beta2 * v_{t-1} + (1 - beta2) * g_t^2``

and normalizes the update by ``sqrt(v_t)``.  These history values are the
necessary condition for the SlowDegrade and SharpSlowDegrade outcomes
(Table 4): a single large faulty gradient inflates ``m`` and especially
``v``, which then (1) biases updates in the faulty direction (Phase 1 of
Fig. 5), (2) suppresses learning while ``v`` remains huge (Phase 2), and
(3) decays at rate ``beta2`` toward an eventual recovery (Phase 3).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), matching Eq. 1 of the paper."""

    SLOTS = ("m", "v")

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def normalizes_gradients(self) -> bool:
        return True

    def first_moment_arrays(self) -> list[np.ndarray]:
        return self._views["m"]

    def second_moment_arrays(self) -> list[np.ndarray]:
        return self._views["v"]

    def _update_into(self, out: np.ndarray, t: int) -> None:
        """Write the bias-corrected update
        ``u_t = lr * m_hat / (sqrt(v_hat) + eps)`` into ``out``."""
        m = self.slots["m"]
        v = self.slots["v"]
        s = self._scratch
        np.divide(v, 1.0 - self.beta2**t, out=s)
        np.sqrt(s, out=s)
        np.add(s, self.eps, out=s)
        np.divide(m, 1.0 - self.beta1**t, out=out)
        np.multiply(out, self.lr, out=out)
        np.divide(out, s, out=out)

    def step(self) -> None:
        t = self._begin_step()
        g = self._arena.grad
        m = self.slots["m"]
        v = self.slots["v"]
        s = self._scratch
        u = self._update_buf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # m_t = beta1 * m + (1 - beta1) * g
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=s)
            np.add(m, s, out=m)
            # v_t = beta2 * v + ((1 - beta2) * g) * g
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1.0 - self.beta2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            self._update_into(u, t)
        self._apply_update(u)


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        super().__init__(params, lr, beta1, beta2, eps)
        self.weight_decay = float(weight_decay)

    def _update_into(self, out: np.ndarray, t: int) -> None:
        """Adam's update plus the decoupled decay ``lr * wd * w``."""
        super()._update_into(out, t)
        s = self._scratch
        np.multiply(self._arena.param, self.lr * self.weight_decay, out=s)
        np.add(out, s, out=out)


class RMSProp(Optimizer):
    """RMSProp: normalizes by a running mean of squared gradients.

    A second normalizing optimizer, used by ablation benches to confirm
    that the SlowDegrade mechanism follows from gradient normalization in
    general, not from Adam specifically (the paper: 134 of 154 optimizers
    developed 2015-2021 normalize gradients via history values).
    """

    SLOTS = ("sq",)

    def __init__(self, params: list[Parameter], lr: float = 1e-3, rho: float = 0.9,
                 eps: float = 1e-8):
        super().__init__(params, lr)
        self.rho = float(rho)
        self.eps = float(eps)

    def normalizes_gradients(self) -> bool:
        return True

    def second_moment_arrays(self) -> list[np.ndarray]:
        return self._views["sq"]

    def step(self) -> None:
        self._begin_step()
        g = self._arena.grad
        sq = self.slots["sq"]
        s = self._scratch
        u = self._update_buf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # sq_t = rho * sq + ((1 - rho) * g) * g
            np.multiply(sq, self.rho, out=sq)
            np.multiply(g, 1.0 - self.rho, out=s)
            np.multiply(s, g, out=s)
            np.add(sq, s, out=sq)
            # u_t = lr * g / (sqrt(sq_t) + eps)
            np.sqrt(sq, out=s)
            np.add(s, self.eps, out=s)
            np.multiply(g, self.lr, out=u)
            np.divide(u, s, out=u)
        self._apply_update(u)
