"""Convergence recording.

Mirrors the paper's measurement protocol (Sec. 3.3): "we captured the
convergence trend by recording the training loss and accuracy values in
every training iteration, as well as the test accuracy once every 100
training iterations" (scaled down here).  The resulting
:class:`ConvergenceRecord` is the input to the outcome classifier
(:mod:`repro.core.analysis.classify`).
"""

from __future__ import annotations

import numpy as np


class ConvergenceRecord:
    """Per-iteration training trace plus periodic test evaluations."""

    def __init__(self):
        self.iterations: list[int] = []
        self.train_loss: list[float] = []
        self.train_acc: list[float] = []
        self.test_iterations: list[int] = []
        self.test_acc: list[float] = []
        #: Largest |optimizer history| observed each iteration (if tracked).
        self.history_magnitude: list[float] = []
        #: Largest |BatchNorm moving statistic| each iteration (if tracked).
        self.mvar_magnitude: list[float] = []
        #: Iteration at which a non-finite loss/weight was first observed.
        self.nonfinite_at: int | None = None
        #: Iterations at which the hardware-failure detector fired.
        self.detections: list[int] = []
        #: Iterations at which a recovery re-execution was performed.
        self.recoveries: list[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_train(self, iteration: int, loss: float, acc: float,
                     history_mag: float | None = None,
                     mvar_mag: float | None = None) -> None:
        self.iterations.append(int(iteration))
        self.train_loss.append(float(loss))
        self.train_acc.append(float(acc))
        if history_mag is not None:
            self.history_magnitude.append(float(history_mag))
        if mvar_mag is not None:
            self.mvar_magnitude.append(float(mvar_mag))

    def record_test(self, iteration: int, acc: float) -> None:
        self.test_iterations.append(int(iteration))
        self.test_acc.append(float(acc))

    def mark_nonfinite(self, iteration: int) -> None:
        if self.nonfinite_at is None:
            self.nonfinite_at = int(iteration)

    def truncate_to(self, iteration: int) -> None:
        """Drop all entries at or after ``iteration`` (used when recovery
        rewinds the trainer and the iterations are re-executed)."""
        keep = sum(1 for i in self.iterations if i < iteration)
        del self.iterations[keep:]
        del self.train_loss[keep:]
        del self.train_acc[keep:]
        del self.history_magnitude[keep:]
        del self.mvar_magnitude[keep:]
        keep_test = sum(1 for i in self.test_iterations if i < iteration)
        del self.test_iterations[keep_test:]
        del self.test_acc[keep_test:]
        if self.nonfinite_at is not None and self.nonfinite_at >= iteration:
            self.nonfinite_at = None

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def final_train_accuracy(self, window: int = 10) -> float:
        """Mean training accuracy over the last ``window`` iterations."""
        if not self.train_acc:
            return 0.0
        return float(np.mean(self.train_acc[-window:]))

    def final_test_accuracy(self, window: int = 3) -> float:
        if not self.test_acc:
            return 0.0
        return float(np.mean(self.test_acc[-window:]))

    def train_accuracy_array(self) -> np.ndarray:
        return np.asarray(self.train_acc, dtype=np.float64)

    def test_accuracy_array(self) -> np.ndarray:
        return np.asarray(self.test_acc, dtype=np.float64)

    def loss_array(self) -> np.ndarray:
        return np.asarray(self.train_loss, dtype=np.float64)

    def to_dict(self) -> dict:
        """JSON-serializable summary (used by campaign result dumps)."""
        return {
            "iterations": self.iterations,
            "train_loss": self.train_loss,
            "train_acc": self.train_acc,
            "test_iterations": self.test_iterations,
            "test_acc": self.test_acc,
            "nonfinite_at": self.nonfinite_at,
            "detections": self.detections,
            "recoveries": self.recoveries,
        }
