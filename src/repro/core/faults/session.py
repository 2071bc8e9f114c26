"""The trained eval-mode model inference faults are injected into.

Table 5's :class:`~repro.core.faults.campaign.InferenceCampaign` and the
serving engine both run on an :class:`InferenceSession`: one training
run, one input pool and one forward (DESIGN.md decision 24).
"""

from __future__ import annotations

import numpy as np

from repro.core.faults.hardware import forward_by_layer
from repro.distributed.sync import SyncDataParallelTrainer
from repro.workloads.base import WorkloadSpec

#: A faulty forward overflows and divides by zero on purpose.
QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class InferenceSession:
    """A trained, eval-mode model plus the request-addressable inputs."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 train_iterations: int | None = None, num_devices: int = 2):
        self.spec = spec
        #: What rebuilds this model bit for bit: an inference store's
        #: header records it, so a resume on another model is refused.
        self.config = dict(
            spec.config_dict(), seed=int(seed),
            train_iterations=int(train_iterations or spec.iterations),
            num_devices=int(num_devices))
        trainer = SyncDataParallelTrainer(
            spec, num_devices=num_devices, seed=seed, test_every=0)
        try:
            trainer.train(self.config["train_iterations"])
        finally:
            trainer.close()
        self.model = trainer.master
        self.model.eval()
        self.inputs = spec.test_data.inputs
        self.num_samples = int(len(self.inputs))
        #: Each top-level layer's input in the last primary forward.
        self.layer_inputs: list[np.ndarray] = []

    def forward(self, batch: np.ndarray, start: int | None = None) -> np.ndarray:
        """Batched forward; faulty activations may legitimately overflow.

        With no ``start`` this is a primary forward of model inputs, and
        it keeps every top-level layer's input in :attr:`layer_inputs`.
        With ``start`` it re-forwards ``batch``, the input of top-level
        layer ``start`` (see :func:`~repro.core.faults.hardware.layer_chain`),
        through ``model.forward`` (at 0 without ``start``, which a model
        that is not a ``Sequential`` does not take) and leaves
        :attr:`layer_inputs` alone: a shadow or an inference unit."""
        with np.errstate(**QUIET):
            if start is None:
                out, self.layer_inputs = forward_by_layer(self.model, batch)
                return out
            return self.model.forward(batch, start) if start \
                else self.model.forward(batch)

    def gather(self, indices) -> np.ndarray:
        """Stack the requested sample rows into one contiguous batch."""
        return self.inputs[np.asarray(indices, dtype=np.intp)]
