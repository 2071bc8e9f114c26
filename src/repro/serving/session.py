"""Model session and in-flight fault plane for the inference server.

:class:`InferenceSession` owns a trained model over a registry workload
(same training path as the offline
:class:`~repro.core.faults.campaign.InferenceCampaign`, so serving and
campaign probe the identical network) plus its pool of test inputs.

:class:`FaultPlane` arms forward-site faults on the live model at a
Poisson rate per request: for a batch of size ``B`` it draws
``k ~ Poisson(rate * B)`` independent faults from the paper's FF
inventory via :func:`~repro.core.faults.hardware.sample_fault`, arms
each with a one-shot :class:`~repro.core.faults.injector.FaultInjector`
forward hook, and disarms after the batched forward.  This is the
serving analogue of the campaign's one-fault-per-experiment design —
except faults now land *in-flight*, racing real traffic.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults.hardware import forward_by_layer, sample_fault
from repro.core.faults.injector import FaultInjector
from repro.distributed.sync import SyncDataParallelTrainer
from repro.workloads.base import WorkloadSpec


class InferenceSession:
    """A trained, eval-mode model plus the request-addressable inputs."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 train_iterations: int | None = None, num_devices: int = 2):
        self.spec = spec
        self.seed = int(seed)
        trainer = SyncDataParallelTrainer(
            spec, num_devices=num_devices, seed=seed, test_every=0)
        try:
            trainer.train(train_iterations or spec.iterations)
        finally:
            trainer.close()
        self.model = trainer.master
        self.model.eval()
        self.inputs = spec.test_data.inputs
        self.num_samples = int(len(self.inputs))
        #: Each top-level layer's input in the last forward from layer 0.
        self.layer_inputs: list[np.ndarray] = []

    def forward(self, batch: np.ndarray, start: int = 0) -> np.ndarray:
        """Batched forward of ``batch``, the input of top-level layer
        ``start`` (see :func:`~repro.core.faults.hardware.layer_chain`);
        faulty activations may legitimately overflow.  A forward from
        layer 0 keeps every top-level layer's input in
        :attr:`layer_inputs`: a shadow re-execution starts from there."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if start:
                return self.model.forward(batch, start)
            out, self.layer_inputs = forward_by_layer(self.model, batch)
            return out

    def gather(self, indices) -> np.ndarray:
        """Stack the requested sample rows into one contiguous batch."""
        return self.inputs[np.asarray(indices, dtype=np.intp)]


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
        self.armed_total = 0

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
            fault = sample_fault(
                self.model, self.rng, max_iteration=1, num_devices=1,
                kinds=("forward",))
            if fault.site.module_name in armed_modules:
                continue
            armed_modules.add(fault.site.module_name)
            injector = FaultInjector(fault)
            injector.arm(None, self.model)
            injectors.append(injector)
        self.armed_total += len(injectors)
        return injectors

    @staticmethod
    def disarm(injectors: list[FaultInjector]) -> None:
        for injector in injectors:
            injector.disarm()
