"""Baseline mitigation techniques compared against in Sec. 5.3 / Sec. 6."""

from repro.core.mitigation.baselines.abft import ABFTChecker
from repro.core.mitigation.baselines.checkpointing import (
    CheckpointRecovery,
    CheckpointRecoveryCost,
)
from repro.core.mitigation.baselines.clipping import GradientClipper
from repro.core.mitigation.baselines.ranger import RangerGuard

__all__ = [
    "ABFTChecker",
    "CheckpointRecovery",
    "CheckpointRecoveryCost",
    "GradientClipper",
    "RangerGuard",
]
