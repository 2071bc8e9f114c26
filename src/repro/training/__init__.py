"""Training engine: convergence recording and checkpoint utilities."""

from repro.training.checkpoints import Checkpoint
from repro.training.metrics import ConvergenceRecord

__all__ = ["Checkpoint", "ConvergenceRecord"]
