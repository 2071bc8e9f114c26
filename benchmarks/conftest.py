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

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import Campaign, HardwareFault, OpSite, PinnedMagnitude
from repro.distributed import SyncDataParallelTrainer
from repro.observe import read_trace
from repro.observe.analysis import propagation_summaries
from repro.workloads import build_workload

#: Device count used throughout the benches (the paper uses 8).
NUM_DEVICES = 4

#: Experiments per workload for statistical campaigns.  The paper runs
#: >100K per workload; these counts keep the full harness under an hour
#: while still exposing every outcome class.
CAMPAIGN_EXPERIMENTS = 60

#: The FF a directed fault names: Table 1 group 1 (random Layer_Outputs).
GROUP1 = FFDescriptor("global_control", group=1, has_feedback=True)


def pinned_fault(site: str, kind: str, iteration: int, device: int = 0, *,
                 magnitude: float, elements: int = 16, seed: int = 0,
                 coherent: bool = False) -> HardwareFault:
    """A group-1 fault whose values are pinned at ±``magnitude`` inside a
    Table 4 band (:class:`~repro.core.faults.PinnedMagnitude`)."""
    return HardwareFault(ff=GROUP1, site=OpSite(site, kind),
                         iteration=iteration, device=device, seed=seed,
                         pinned=PinnedMagnitude(magnitude, elements, coherent))


def directed_campaign(workload: str, warmup: int, total: int,
                      test_every: int = 10) -> Campaign:
    """A campaign for a directed fault list: warm-up snapshot at
    ``warmup``, every run (and the fault-free reference) ends at
    ``total``."""
    spec = build_workload(workload, size="tiny", seed=0)
    return Campaign(spec, num_devices=NUM_DEVICES, seed=0,
                    warmup_iterations=warmup, horizon=total - warmup,
                    test_every=test_every)


def traced(result) -> list[dict]:
    """Each experiment's story from a traced ``Campaign.run``'s merged
    trace (:func:`~repro.observe.analysis.experiment_summary`: the
    per-iteration ``loss`` / ``acc`` / condition series, onsets and
    ``divergence_at``), in fault-list order."""
    report = result.engine_report
    summaries = propagation_summaries(read_trace(report.trace_path))
    keys = {payload["index"]: key for key, payload in report.results.items()}
    return [summaries[keys[index]] for index in range(len(keys))]


@pytest.fixture(scope="session")
def trained_resnet():
    """A resnet trainer trained to its tiny budget (shared, read-mostly)."""
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=10)
    trainer.train()
    return trainer


#: The Fig. 3 workload set and the sample seed of its uniform campaigns.
UNIFORM_WORKLOADS = ("resnet", "resnet_nobn", "resnet_sgd",
                     "resnet_largedecay")
CAMPAIGN_SEED = 77


def uniform_campaign(name: str) -> Campaign:
    """The statistical FI campaign ``campaign_results`` runs on ``name``."""
    spec = build_workload(name, size="tiny", seed=0)
    return Campaign(spec, num_devices=NUM_DEVICES, seed=0,
                    warmup_iterations=15, horizon=45, inject_window=10,
                    test_every=10)


def uniform_meta(names=UNIFORM_WORKLOADS) -> dict:
    """What a bench's artifact records of the uniform campaigns its
    claims read: each campaign's ``config_dict()`` and the sample seed."""
    return {"seed": CAMPAIGN_SEED,
            "config": {name: uniform_campaign(name).config_dict()
                       for name in names}}


@pytest.fixture(scope="session")
def campaign_results(tmp_path_factory):
    """Statistical FI campaigns for the Fig. 3 workload set (cached), each
    with a store and a merged trace (``engine_report.trace_path``)."""
    out = tmp_path_factory.mktemp("campaigns")
    return {name: uniform_campaign(name).run(
                CAMPAIGN_EXPERIMENTS, seed=CAMPAIGN_SEED,
                store=out / f"{name}.jsonl", trace=True)
            for name in UNIFORM_WORKLOADS}


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
