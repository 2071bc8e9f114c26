"""Stochastic gradient descent, with optional momentum.

Plain SGD does not normalize gradients — per Sec. 4.2.3 this is what makes
the SharpDegrade outcome (and the Resnet_SGD short-term INFs/NaNs case)
reachable: a large faulty gradient is applied to the weights at full
magnitude instead of being squashed by an adaptive denominator.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class SGD(Optimizer):
    """SGD with optional classical momentum.

    With ``momentum > 0`` the velocity buffer is a gradient-history term
    (it carries fault effects across iterations), but it does not
    *normalize* gradients, so the optimizer still reports
    ``normalizes_gradients() == False``.
    """

    #: Allocated at ``momentum == 0`` too, where it stays zero.
    SLOTS = ("velocity",)

    def __init__(self, params: list[Parameter], lr: float = 0.01, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = float(momentum)

    def normalizes_gradients(self) -> bool:
        return False

    def history_magnitude(self) -> float:
        """0.0 without momentum: the gradient-history necessary condition
        is then structurally impossible (and the zero velocity unread)."""
        return 0.0 if self.momentum == 0.0 else super().history_magnitude()

    def first_moment_arrays(self) -> list[np.ndarray]:
        return self._views["velocity"] if self.momentum > 0.0 else []

    def step(self) -> None:
        self._begin_step()
        g = self._arena.grad
        u = self._update_buf
        with np.errstate(over="ignore", invalid="ignore"):
            if self.momentum > 0.0:
                # vel_t = momentum * vel + g;  u_t = lr * vel_t
                vel = self.slots["velocity"]
                np.multiply(vel, self.momentum, out=vel)
                np.add(vel, g, out=vel)
                np.multiply(vel, self.lr, out=u)
            else:
                np.multiply(g, self.lr, out=u)
        self._apply_update(u)
