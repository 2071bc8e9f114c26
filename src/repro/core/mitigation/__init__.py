"""Mitigation: Algorithm 1 bounds, detection, recovery, baselines."""

from repro.core.mitigation.bounds import (
    SIGMA_MULTIPLIER,
    DetectionBounds,
    derive_bounds_for_trainer,
    derive_history_bound,
    derive_mvar_bound,
)
from repro.core.mitigation.detector import HardwareFailureDetector
from repro.core.mitigation.guard import Detection, Guard
from repro.core.mitigation.recovery import (
    REEXECUTE_ITERATIONS,
    MitigationHook,
    RecoveryError,
    RecoveryManager,
)

__all__ = [
    "REEXECUTE_ITERATIONS",
    "SIGMA_MULTIPLIER",
    "Detection",
    "DetectionBounds",
    "Guard",
    "HardwareFailureDetector",
    "MitigationHook",
    "RecoveryError",
    "RecoveryManager",
    "derive_bounds_for_trainer",
    "derive_history_bound",
    "derive_mvar_bound",
]
