"""Software-fault-model validation against micro-RTL injection
(Sec. 3.2.3 of the paper, in miniature).

The paper ran 40K RTL FI experiments on five layers from five DNNs and
confirmed that for every non-masked fault, the faulty output elements
matched the corresponding software fault model's prediction.  Here we
replay the same methodology on the micro-RTL MAC array:

for each experiment, inject a bit flip on a named RTL FF at a random
micro-cycle, diff the output against the golden run, and compare the
faulty element positions against the geometry the software fault model
predicts for the same architectural cycle.  Masked faults (no output
difference) are tallied separately, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.accelerator.dataflow import DataflowMap
from repro.accelerator.rtl import MACArraySimulator, RTLFault


@dataclass
class ValidationCase:
    """One RTL experiment and its software-model comparison."""

    fault: RTLFault
    masked: bool
    #: Flat output positions that differ in the RTL run.
    rtl_positions: np.ndarray
    #: Positions the software fault model predicts can be faulty.
    predicted_positions: np.ndarray
    matches: bool


@dataclass
class ValidationSummary:
    total: int = 0
    masked: int = 0
    matched: int = 0
    mismatched: int = 0
    cases: list[ValidationCase] = field(default_factory=list)

    @property
    def match_rate(self) -> float:
        checked = self.matched + self.mismatched
        return self.matched / checked if checked else 1.0


def predicted_positions_for(
    fault: RTLFault,
    sim: MACArraySimulator,
    m: int,
    k: int,
    f: int,
    config: AcceleratorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """The element positions the matching software fault model allows.

    The output of the RTL matmul is (M, F); its canonical dataflow view is
    (1, F, 1, M), whose flat order is feature-major — matching
    ``out.T.reshape(-1)``.  This helper returns positions in the *original*
    (M, F) flat order for direct comparison with the RTL diff.
    """
    flow = DataflowMap((m, f), config)
    arch = sim.micro_to_arch_cycle(fault.cycle, m, k, f)
    chunks = (k + sim.k_chunk - 1) // sim.k_chunk
    # A stuck fault spanning several micro-cycles can touch the next
    # architectural cycles too.
    last_arch = sim.micro_to_arch_cycle(fault.cycle + fault.duration - 1, m, k, f)
    n_arch = max(last_arch - arch + 1, 1)
    if fault.ff == "acc":
        coords = flow.lane_element_for_cycles(arch, n_arch, fault.index % sim.lanes)
    elif fault.ff in ("a_reg", "out_valid", "in_valid", "cfg_precision"):
        coords = flow.elements_for_cycles(arch, n_arch)
    elif fault.ff == "out_addr":
        # Wrong address: both the intended elements (left stale) and the
        # aliased destination row can differ.
        tile, row = divmod(arch, m)
        alias_row = row ^ (1 << fault.bit)
        coords = flow.elements_for_cycles(arch, n_arch)
        if 0 <= alias_row < m:
            alias_cycle = tile * m + alias_row
            alias = flow.elements_for_cycles(alias_cycle, 1)
            coords = tuple(np.concatenate([a, b]) for a, b in zip(coords, alias))
    else:  # pragma: no cover - FF_NAMES is exhaustive
        raise ValueError(f"unhandled FF {fault.ff!r}")
    canonical_flat = flow.flat_indices(coords)
    # Canonical (1, F, 1, M) flat index = feature * M + row; convert to
    # the RTL buffer's (M, F) flat order = row * F + feature.
    feature, row = np.divmod(canonical_flat, flow.view_shape[3])
    return np.sort(np.unique(row * f + feature))


def run_validation(
    num_experiments: int = 200,
    m: int = 12,
    k: int = 96,
    f: int = 24,
    seed: int = 0,
    config: AcceleratorConfig = DEFAULT_CONFIG,
) -> ValidationSummary:
    """Run the Sec. 3.2.3 validation campaign on a random matmul."""
    rng = np.random.default_rng(seed)
    sim = MACArraySimulator(config)
    x = rng.normal(0.0, 1.0, size=(m, k)).astype(np.float32)
    w = rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, f)).astype(np.float32)
    golden = sim.run(x, w)
    total_micro = sim.num_micro_cycles(m, k, f)
    summary = ValidationSummary()

    ff_choices = ("acc", "a_reg", "out_valid", "out_addr", "in_valid")
    for _ in range(int(num_experiments)):
        ff = ff_choices[int(rng.integers(0, len(ff_choices)))]
        if ff in ("out_valid", "in_valid"):
            bit = int(rng.integers(0, 2))
        elif ff == "a_reg":
            bit = int(rng.integers(0, 16))
        elif ff == "out_addr":
            bit = int(rng.integers(0, 4))
        else:  # acc: any bit of the FP32 accumulator
            bit = int(rng.integers(0, 32))
        fault = RTLFault(
            ff=ff,
            cycle=int(rng.integers(0, total_micro)),
            index=int(rng.integers(0, sim.lanes if ff == "acc" else sim.k_chunk)),
            bit=bit,
            duration=1,
        )
        faulty = sim.run(x, w, fault)
        positions = sim.diff_positions(golden, faulty)
        predicted = predicted_positions_for(fault, sim, m, k, f, config)
        masked = positions.size == 0
        matches = masked or bool(np.isin(positions, predicted).all())
        summary.total += 1
        if masked:
            summary.masked += 1
        elif matches:
            summary.matched += 1
        else:
            summary.mismatched += 1
        summary.cases.append(
            ValidationCase(fault, masked, positions, predicted, matches)
        )
    return summary
