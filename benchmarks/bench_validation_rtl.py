"""Sec. 3.2.3: software-fault-model validation against micro-RTL injection.

The paper runs 40K RTL FI experiments and reports that every non-masked
fault's faulty output elements match the software model's prediction.
This bench replays the validation at reduced scale and benchmarks the
cycle-accurate simulator.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, write_artifact
from repro.accelerator.rtl import MACArraySimulator
from repro.core.faults.validation import run_validation

EXPERIMENTS = 400


def bench_rtl_validation(benchmark):
    summary = run_validation(num_experiments=EXPERIMENTS, m=12, k=96, f=24, seed=0)

    header("Sec. 3.2.3 — software fault models vs. micro-RTL injection")
    emit(f"experiments: {summary.total}  masked: {summary.masked}  "
         f"matched: {summary.matched}  mismatched: {summary.mismatched}")
    claim = paper_vs_measured(
        "non-masked RTL faults match the software fault model's prediction",
        "all matched (est. <1 in 1M mis-modeled, 99% confidence)",
        f"{summary.matched}/{summary.matched + summary.mismatched} matched "
        f"({summary.match_rate:.1%})",
        band=(1, 1), counts=(summary.matched, summary.total - summary.masked),
    )
    write_artifact("validation_rtl", {"claims": [claim], "seed": 0},
                   smoke=False)

    # Benchmark: one full RTL matmul execution (the cost that makes full
    # RTL FI infeasible at paper scale — Sec. 3's 46K-year estimate).
    sim = MACArraySimulator()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 96)).astype(np.float32)
    w = rng.normal(0, 0.1, size=(96, 24)).astype(np.float32)
    benchmark(sim.run, x, w)

    assert summary.mismatched == 0
