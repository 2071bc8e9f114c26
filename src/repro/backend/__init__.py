"""Pluggable execution backends for the data-parallel trainer.

See :mod:`repro.backend.base` for the contract,
:mod:`repro.backend.inprocess` for the historical simulated loop (the
reference), and :mod:`repro.backend.batched` for the experiment-stacked
vectorized runtime (the fast path).

:data:`BACKEND_REGISTRY` is the single source of truth for what each
backend is and when to pick it; CLI help and docs are generated from it
rather than hand-maintained.
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
            summary="sequential simulated replicas in one process",
            tradeoff="the bit-exact reference; lowest overhead for a "
                     "single run, but campaigns step one experiment at "
                     "a time",
        ),
        BackendInfo(
            name="batched",
            summary="E experiments stacked into one vectorized NumPy "
                    "program",
            tradeoff="highest campaign throughput (pair with "
                     "--experiment-batch E); small overhead at E=1, and "
                     "unbatchable models fall back to the solo loop "
                     "per lane",
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
