"""Pluggable execution backends for the data-parallel trainer.

See :mod:`repro.backend.base` for the contract,
:mod:`repro.backend.inprocess` for the device-step program (lane step,
solo-loop fallback) and :mod:`repro.backend.batched` for the lane
machinery and the E-experiment lockstep driver.

:data:`BACKEND_REGISTRY` is the single source of truth for what each
backend name is and when to pick it; CLI help and docs are generated
from it rather than hand-maintained.
"""

from dataclasses import dataclass

from repro.backend.base import (
    BACKEND_NAMES,
    ExecutionBackend,
    build_backend,
    device_step,
    reseed_random_layers,
)
from repro.backend.batched import BatchedBackend, LaneGroup, run_lockstep
from repro.backend.inprocess import InProcessBackend


@dataclass(frozen=True)
class BackendInfo:
    """One registered backend: its CLI name, what it does, and the
    trade-off that decides when to pick it."""

    name: str
    summary: str
    tradeoff: str


#: Name -> :class:`BackendInfo`, in CLI order.  The single place backend
#: choices and their trade-offs are described; `repro ... --help` and
#: the README table are generated from it.
BACKEND_REGISTRY: dict[str, BackendInfo] = {
    info.name: info
    for info in (
        BackendInfo(
            name="inprocess",
            summary="one experiment; its D devices step as D lanes of one "
                    "vectorized NumPy program",
            tradeoff="the default; a model with a layer that is not "
                     "lane-native (and any non-FP32 precision) steps "
                     "device by device instead, the bit-exact reference",
        ),
        BackendInfo(
            name="batched",
            summary="the same program; E experiments x D devices share "
                    "its lanes",
            tradeoff="a few percent more campaign throughput with "
                     "--experiment-batch E, at E times the memory; "
                     "identical to inprocess at E=1",
        ),
    )
}
assert tuple(BACKEND_REGISTRY) == BACKEND_NAMES


def backend_choices_help() -> str:
    """One-line-per-backend help text generated from the registry."""
    return "; ".join(
        f"{info.name}: {info.summary} ({info.tradeoff})"
        for info in BACKEND_REGISTRY.values()
    )


__all__ = [
    "BACKEND_NAMES",
    "BACKEND_REGISTRY",
    "BackendInfo",
    "BatchedBackend",
    "LaneGroup",
    "backend_choices_help",
    "run_lockstep",
    "ExecutionBackend",
    "InProcessBackend",
    "build_backend",
    "device_step",
    "reseed_random_layers",
]
