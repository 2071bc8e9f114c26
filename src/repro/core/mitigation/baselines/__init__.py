"""Baseline mitigation techniques compared against in Sec. 5.3 / Sec. 6.

The checkpointing baseline is not here: it is
:class:`repro.core.mitigation.RecoveryManager` at epoch cadence."""

from repro.core.mitigation.baselines.abft import ABFTChecker
from repro.core.mitigation.baselines.clipping import GradientClipper
from repro.core.mitigation.baselines.ranger import RangerGuard

__all__ = [
    "ABFTChecker",
    "GradientClipper",
    "RangerGuard",
]
