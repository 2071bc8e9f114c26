"""Workload specification: everything a trainer needs to run one row of
the paper's Table 2 (model, data, loss, optimizer, metric, schedule)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.synthetic import Dataset
from repro.nn.losses import Loss
from repro.nn.module import Module, Parameter
from repro.optim.base import Optimizer


@dataclass
class WorkloadSpec:
    """A fully specified training workload.

    The factories take explicit seeds/params so replicas on different
    simulated devices can be constructed identically, and so campaigns can
    rebuild a fresh copy of the workload for every injection experiment.
    """

    name: str
    #: Build the model from a seed (replicas use the same seed).
    model_fn: Callable[[int], Module]
    #: Build a fresh loss object (losses carry per-batch caches).
    loss_fn: Callable[[], Loss]
    #: Build the optimizer over a parameter list.
    optimizer_fn: Callable[[list[Parameter]], Optimizer]
    train_data: Dataset
    test_data: Dataset
    #: metric(model_output, targets) -> scalar in [0, 1].
    metric: Callable[[np.ndarray, np.ndarray], float]
    batch_size: int = 32
    #: Fault-free iteration budget (Table 2's "Num. iterations").
    iterations: int = 300
    #: BatchNorm decay factor used by this workload (0.9 except LargeDecay).
    bn_momentum: float = 0.9
    #: Whether the model contains normalization layers with moving stats.
    has_batchnorm: bool = True
    #: Free-form notes (mirrors Table 2 annotations).
    notes: str = ""
    #: Extra constructor keywords recorded for reporting.
    extra: dict = field(default_factory=dict)

    def build_model(self, seed: int = 0) -> Module:
        return self.model_fn(seed)

    def build_optimizer(self, params: list[Parameter]) -> Optimizer:
        return self.optimizer_fn(params)

    def config_dict(self) -> dict:
        """What :func:`~repro.workloads.build_workload` rebuilds this spec
        from, under the names a campaign or inference store's config
        records them."""
        return {"workload": self.name,
                "size": self.extra.get("size", "small"),
                "workload_seed": int(self.extra.get("seed", 0))}

    def describe(self) -> dict:
        """Table 2-style row for reports."""
        return {
            "name": self.name,
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "bn_momentum": self.bn_momentum,
            "has_batchnorm": self.has_batchnorm,
            "train_samples": len(self.train_data),
            "test_samples": len(self.test_data),
            "notes": self.notes,
        }
