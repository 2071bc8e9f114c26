"""Hardware fault model: single-cycle, single-FF bit flips (Sec. 3.2.1).

Each fault-injection experiment follows the paper's protocol (Sec. 3.3):

1. randomly select an FF and a cycle — here: sample an
   :class:`~repro.accelerator.ffs.FFDescriptor` from the inventory, a
   training iteration, a device, and an *op site* (a layer operation in
   the forward or backward pass);
2-3. use the matching software fault model to compute the faulty output
   elements and their values;
4. continue training and observe the outcome.

This module defines the experiment descriptor (:class:`HardwareFault`)
and the site helpers over a model: op-site enumeration, the module at a
path, and which top-level layer holds it — each memoised per model
structure (:meth:`~repro.nn.Module.memoised`), so a serving fault plane
arming faults per batch walks the model once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.ffs import FFDescriptor, FFInventory
from repro.core.faults.software_models import PinnedMagnitude
from repro.nn import (
    LSTM,
    BatchNorm,
    Conv2D,
    Dense,
    Embedding,
    LayerNorm,
    Module,
    MultiHeadSelfAttention,
    Sequential,
)

#: Module types whose operations are injectable op sites.  These are the
#: layers that occupy the accelerator's MAC and element-wise datapaths.
INJECTABLE_TYPES = (Conv2D, Dense, BatchNorm, LayerNorm, Embedding, LSTM,
                    MultiHeadSelfAttention)

#: Op-site kinds: the forward output and the two backward-pass products
#: (Table 1's Layer_Output roles across the two passes).
FORWARD = "forward"
WEIGHT_GRAD = "weight_grad"
INPUT_GRAD = "input_grad"
SITE_KINDS = (FORWARD, WEIGHT_GRAD, INPUT_GRAD)

#: Link faults: the all-reduced mean gradient, corrupted after the
#: reduction and before any consumer sees it.  There is one logical
#: reduction link in the simulated topology, not a per-layer site, so
#: a comm fault's module name is :data:`LINK_SITE`.
COMM = "comm"
LINK_SITE = "link"

#: The optimizer's weight-update operation (Sec. 4.2.2: "the operation
#: that adds gradients to current weight values").  The site's module
#: name is a parameter's arena name, or anything else to sample one.
WEIGHT_UPDATE = "weight_update"

#: The modeled design's FF population every fault is drawn from.
FF_POPULATION = FFInventory()


@dataclass(frozen=True)
class OpSite:
    """One injectable operation: a module (by qualified name) and a kind."""

    module_name: str
    kind: str

    @property
    def in_backward_pass(self) -> bool:
        """True for weight-gradient and input-gradient op sites."""
        return self.kind != FORWARD


@dataclass
class HardwareFault:
    """A fully specified fault-injection experiment."""

    ff: FFDescriptor
    site: OpSite
    iteration: int
    device: int
    seed: int
    #: A directed fault's pinned values, applied in place of the model
    #: ``ff`` selects; ``None`` for every sampled fault.
    pinned: PinnedMagnitude | None = None

    def describe(self) -> dict:
        """Flat summary of the experiment (for logs and reports)."""
        return {
            "ff_category": self.ff.category,
            "ff_group": self.ff.group,
            "ff_bit": self.ff.bit,
            "site": f"{self.site.module_name}:{self.site.kind}",
            "iteration": self.iteration,
            "device": self.device,
            "seed": self.seed,
        }


def enumerate_sites(model: Module, kinds: tuple[str, ...] = SITE_KINDS) -> list[OpSite]:
    """All injectable op sites of a model, memoised per model structure
    (the list is shared: do not mutate it).

    ``weight_grad`` sites are only listed for modules with parameters;
    ``input_grad`` is skipped for Embedding (tokens have no gradient).
    """
    kinds = tuple(kinds)

    def build(model: Module) -> list[OpSite]:
        sites: list[OpSite] = []
        for name, module in model.named_modules():
            if not isinstance(module, INJECTABLE_TYPES):
                continue
            for kind in kinds:
                if kind == WEIGHT_GRAD and not any(True for _ in module._params):
                    continue
                if kind == INPUT_GRAD and isinstance(module, Embedding):
                    continue
                sites.append(OpSite(name, kind))
        if not sites:
            raise ValueError("model has no injectable op sites")
        return sites

    return model.memoised(("sites", kinds), build)


def module_at(model: Module, path: str) -> Module:
    """The module at qualified ``path`` (``""`` is ``model`` itself);
    ``KeyError`` if there is none.  The path map is memoised per model
    structure and leaves the root out, so it holds no cycle."""
    if not path:
        return model
    return model.memoised("modules", lambda model: {
        name: module for name, module in model.named_modules() if name})[path]


def layer_chain(model: Module) -> list[Module]:
    """The top-level layers a forward runs in order: a ``Sequential``'s
    layers (every registry model is one); any other model is a chain of
    one."""
    return model.layers if isinstance(model, Sequential) else [model]


def site_layers(model: Module) -> dict[str, int]:
    """Module path -> index in :func:`layer_chain` of the top-level layer
    holding it, memoised per model structure."""
    def build(model: Module) -> dict[str, int]:
        if not isinstance(model, Sequential):
            return {name: 0 for name, _ in model.named_modules()}
        return {name: index
                for index, layer in enumerate(model.layers)
                for name, _ in layer.named_modules(f"{index}.")}

    return model.memoised("site_layers", build)


def forward_by_layer(model: Module, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward ``x`` one top-level layer at a time; returns the output and
    each layer's input.  The inputs are references, not copies: a layer's
    output is a fresh array and no layer writes into its input, so each
    stays what that layer read — the golden starting point of a forward
    from that layer (``Sequential.forward(x, start)``) once a fault has
    fired further down."""
    inputs = []
    for layer in layer_chain(model):
        inputs.append(x)
        x = layer.forward(x)
    return x, inputs


def sample_fault(
    model: Module,
    rng: np.random.Generator,
    max_iteration: int,
    num_devices: int,
    kinds: tuple[str, ...] = SITE_KINDS,
) -> HardwareFault:
    """Draw one random experiment per the paper's step (1)."""
    sites = enumerate_sites(model, kinds)
    site = sites[int(rng.integers(0, len(sites)))]
    return HardwareFault(
        ff=FF_POPULATION.sample(rng),
        site=site,
        iteration=int(rng.integers(0, max_iteration)),
        device=int(rng.integers(0, num_devices)),
        seed=int(rng.integers(0, 2**31 - 1)),
    )


def sample_forward_fault(model: Module, rng: np.random.Generator) -> HardwareFault:
    """Draw one inference fault: a forward op site of ``model``, at
    iteration 0 on device 0.  The one sampler behind the inference
    campaign and the serving fault plane."""
    return sample_fault(model, rng, max_iteration=1, num_devices=1,
                        kinds=(FORWARD,))
