"""Shared fixtures for the benchmark harness.

Benchmarks run at the "tiny" workload scale with reduced experiment
counts; every experiment is seeded, so the emitted tables are
reproducible.  Expensive shared artifacts (trained baselines, campaign
results) are session-scoped.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.faults import Campaign
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload

#: Device count used throughout the benches (the paper uses 8).
NUM_DEVICES = 4

#: Experiments per workload for statistical campaigns.  The paper runs
#: >100K per workload; these counts keep the full harness under an hour
#: while still exposing every outcome class.
CAMPAIGN_EXPERIMENTS = 60


@pytest.fixture(scope="session")
def trained_resnet():
    """A resnet trainer trained to its tiny budget (shared, read-mostly)."""
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=10)
    trainer.train()
    return trainer


@pytest.fixture(scope="session")
def campaign_results(tmp_path_factory):
    """Statistical FI campaigns for the Fig. 3 workload set (cached), each
    with a store and a merged trace (``engine_report.trace_path``)."""
    out = tmp_path_factory.mktemp("campaigns")
    results = {}
    for name in ("resnet", "resnet_nobn", "resnet_sgd", "resnet_largedecay"):
        spec = build_workload(name, size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=NUM_DEVICES, seed=0,
                            warmup_iterations=15, horizon=45,
                            inject_window=10, test_every=10)
        results[name] = campaign.run(CAMPAIGN_EXPERIMENTS, seed=77,
                                     store=out / f"{name}.jsonl", trace=True)
    return results


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter):
    """Flush the buffered experiment tables after the benchmark results."""
    import _report

    if _report.LINES:
        terminalreporter.write_line(_report.provenance_banner())
        for line in _report.LINES:
            terminalreporter.write_line(line)
        _report.LINES.clear()
