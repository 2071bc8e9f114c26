"""Activation range restriction baseline (Ranger / FT-ClipAct, Sec. 6).

Profiles per-layer activation ranges during fault-free training, then
flags (and optionally clamps) activations outside the profiled range.
The paper reports this approach detects only a small fraction (33.7% in
their experiments) of latent unexpected outcomes: faults that perturb
*history state* (optimizer moments, moving variance) without producing
out-of-range activations in the checked window slip through, as do
backward-pass faults (activation bounds only see the forward pass).
"""

from __future__ import annotations

import numpy as np

from repro.core.mitigation.guard import Detection, Guard
from repro.nn.activations import GELU, LeakyReLU, ReLU, ScaledReLU, SiLU
from repro.nn.module import Module

#: Layer types whose outputs are profiled/guarded.
GUARDED_TYPES = (ReLU, LeakyReLU, SiLU, GELU, ScaledReLU)


class RangerGuard(Guard):
    """Two-phase activation guard: profile, then monitor (trainer hook).

    During the first ``profile_iterations`` of its life the guard records
    the max |activation| of each guarded layer; afterwards it checks every
    forward output against ``margin x`` the profiled bound on the device
    replicas, optionally clamping.  A firing is stamped with the
    iteration the trainer is running, whenever the guard was installed.
    """

    technique = "ranger"

    def __init__(self, profile_iterations: int = 20, margin: float = 2.0,
                 clamp: bool = False):
        super().__init__()
        self.profile_iterations = int(profile_iterations)
        self.margin = float(margin)
        self.clamp = bool(clamp)
        self.bounds: dict[str, float] = {}
        self._seen_iterations = 0
        self._installed: list[Module] = []

    def _guard_hook(self, trainer, layer_name: str):
        def hook(tensor: np.ndarray, info: dict) -> np.ndarray:
            with np.errstate(invalid="ignore"):
                mag = np.abs(tensor).max() if tensor.size else 0.0
            mag = float(mag) if np.isfinite(mag) else float("inf")
            if self._seen_iterations < self.profile_iterations:
                if np.isfinite(mag):
                    self.bounds[layer_name] = max(self.bounds.get(layer_name, 0.0), mag)
                return tensor
            bound = self.bounds.get(layer_name, 0.0) * self.margin
            if bound > 0.0 and mag > bound:
                self.fire(trainer, Detection(trainer.iteration, self.technique,
                                             layer_name, mag, bound))
                if self.clamp:
                    return np.clip(np.nan_to_num(tensor, nan=0.0), -bound, bound).astype(
                        np.float32
                    )
            return tensor

        return hook

    def before_iteration(self, trainer, iteration: int) -> None:
        """Trainer hook: install the guard hooks once."""
        super().before_iteration(trainer, iteration)
        if self._installed:
            return
        for d, replica in enumerate(trainer.replicas):
            for name, module in replica.named_modules():
                if isinstance(module, GUARDED_TYPES):
                    # Chain-friendly: Ranger owns the forward hook slot for
                    # activation layers (fault models target MAC layers).
                    module.set_fault_hook(
                        "forward", self._guard_hook(trainer, f"dev{d}.{name}"))
                    self._installed.append(module)

    def after_iteration(self, trainer, iteration: int, loss: float, acc: float) -> None:
        """Trainer hook: advance the profiling clock."""
        self._seen_iterations += 1

    def uninstall(self) -> None:
        """Remove the guard hooks from every guarded layer."""
        for module in self._installed:
            module.set_fault_hook("forward", None)
        self._installed.clear()
