"""Weight initializers.

Algorithm 1 in the paper assumes He-style initialization properties
(zero-mean layer outputs, ``Var[w] = 1/N_l`` where ``N_l`` is the number of
partial sums per output neuron), so He initialization is the default for
all conv/dense layers in the workloads.
"""

from __future__ import annotations

import numpy as np


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-normal initialization: N(0, 2 / fan_in).

    The variance-preservation argument behind Algorithm 1's mvar bound uses
    ``Var[w] = 1 / N_l``; He init uses ``2 / fan_in`` to compensate for ReLU
    halving the variance — both satisfy the bound's assumptions.
    """
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def orthogonal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Orthogonal initialization for recurrent kernels."""
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
