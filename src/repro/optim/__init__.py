"""Optimizers with first-class gradient-history terms."""

from repro.optim.adam import Adam, AdamW, RMSProp
from repro.optim.base import Optimizer, max_abs
from repro.optim.sgd import SGD

__all__ = [
    "SGD",
    "Adam",
    "AdamW",
    "Optimizer",
    "RMSProp",
    "max_abs",
]
