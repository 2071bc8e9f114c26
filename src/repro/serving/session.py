"""In-flight fault plane for the inference server.

:class:`FaultPlane` arms forward-site faults on the live model at a
Poisson rate per request: a batch of ``B`` requests draws
``k ~ Poisson(rate * B)`` faults with
:func:`~repro.core.faults.hardware.sample_forward_fault` — the inference
campaign's sampler — arms each as a one-shot
:class:`~repro.core.faults.injector.FaultInjector` and disarms after the
batched forward.  The model is an
:class:`~repro.core.faults.session.InferenceSession`'s, re-exported here.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults.hardware import sample_forward_fault
from repro.core.faults.injector import FaultInjector
from repro.core.faults.session import InferenceSession

__all__ = ["FaultPlane", "InferenceSession"]


class FaultPlane:
    """Poisson-rate forward-fault arming for a live model.

    ``rate`` is the expected number of faults per *request* (so a batch
    of ``B`` requests sees ``Poisson(rate * B)`` faults).  Rates of
    practical interest are tiny; the CLI exposes the full range so tests
    and benchmarks can push into the always-faulty regime.
    """

    def __init__(self, model, rate: float, seed: int = 0):
        if rate < 0:
            raise ValueError("fault rate must be >= 0")
        self.model = model
        self.rate = float(rate)
        self.rng = np.random.default_rng(seed)

    def arm(self, batch_size: int) -> list[FaultInjector]:
        """Arm ``k ~ Poisson(rate * batch_size)`` one-shot forward faults.

        Each module has a single forward-hook slot, so a second fault
        drawn for an already-armed module is skipped — at realistic
        rates a same-batch, same-module double fault is vanishingly
        rare, and skipping (rather than chaining) keeps each injector's
        record attributable to its own fault.
        """
        if self.rate <= 0 or batch_size <= 0:
            return []
        k = int(self.rng.poisson(self.rate * batch_size))
        injectors: list[FaultInjector] = []
        armed_modules: set[str] = set()
        for _ in range(k):
            fault = sample_forward_fault(self.model, self.rng)
            if fault.site.module_name in armed_modules:
                continue
            armed_modules.add(fault.site.module_name)
            injector = FaultInjector(fault)
            injector.arm(None, self.model)
            injectors.append(injector)
        return injectors

    @staticmethod
    def disarm(injectors: list[FaultInjector]) -> None:
        for injector in injectors:
            injector.disarm()
