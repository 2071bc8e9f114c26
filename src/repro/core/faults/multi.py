"""Multiple-fault experiments (Sec. 4.3.2 of the paper).

The paper argues its necessary conditions extend to multiple hardware
failures: at the reported datacenter failure rates, failures during one
training run "are expected to occur far enough apart such that their
effects are largely independent".  This module provides the machinery to
test that claim directly: :func:`sample_spread_faults` draws several
faults far apart, each armed by its own one-shot
:class:`~repro.core.faults.injector.FaultInjector` on the same trainer
(hooks run in the order they were added), and
:func:`expected_faults_per_run` computes how many failures a training
run of a given length would see under a given per-device failure rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults.hardware import HardwareFault


def expected_faults_per_run(
    iterations: int,
    seconds_per_iteration: float,
    num_devices: int,
    failures_per_device_hour: float = 1e-4,
) -> float:
    """Expected hardware failures during one training run.

    The paper's framing: at reported rates ("a few cores per several
    thousand server machines"), mid-sized DNN training runs see at most
    one failure; only very long runs on many devices see several — and
    those are far apart.
    """
    if min(iterations, num_devices) <= 0 or seconds_per_iteration <= 0:
        raise ValueError("iterations, devices, and iteration time must be positive")
    hours = iterations * seconds_per_iteration / 3600.0
    return hours * num_devices * failures_per_device_hour


def sample_spread_faults(
    base_fault_sampler,
    rng: np.random.Generator,
    count: int,
    total_iterations: int,
    min_separation: int | None = None,
) -> list[HardwareFault]:
    """Sample ``count`` faults with iteration spacing.

    ``base_fault_sampler(rng) -> HardwareFault`` provides the FF/site
    draws; this helper re-draws the iterations so consecutive faults are
    at least ``min_separation`` apart (default: total/count/2 — "far
    enough apart such that their effects are largely independent").
    """
    if count <= 0:
        raise ValueError("count must be positive")
    separation = (total_iterations // (2 * count)) if min_separation is None else min_separation
    faults = []
    iteration = int(rng.integers(0, max(total_iterations // count, 1)))
    for _ in range(count):
        fault = base_fault_sampler(rng)
        fault.iteration = min(iteration, total_iterations - 1)
        faults.append(fault)
        iteration += separation + int(rng.integers(0, max(separation, 1)))
    return faults
