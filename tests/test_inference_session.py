"""One inference model (DESIGN.md decision 24): the offline
:class:`InferenceCampaign` and the :class:`ServingEngine` run on one
:class:`InferenceSession`, so a fault served in a batch and the same
fault as a campaign unit get the same verdict; and an inference store
names the model and the faults it holds, so a resume on another of
either is refused."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.analysis.classify import (
    InferenceOutcome,
    classify_inference_experiment,
)
from repro.core.faults import InferenceCampaign
from repro.core.faults.hardware import sample_forward_fault
from repro.core.faults.injector import FaultInjector
from repro.core.faults.serialization import fault_to_dict
from repro.engine import ResultStore
from repro.serving import ServingEngine
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def campaign() -> InferenceCampaign:
    return InferenceCampaign(build_workload("resnet", size="tiny"),
                             train_iterations=4)


def test_the_session_records_the_model_it_trained(campaign):
    spec = campaign.spec
    assert campaign.model is campaign.session.model
    assert campaign.session.config == {
        "workload": "resnet", "size": "tiny", "workload_seed": 0, "seed": 0,
        "train_iterations": 4, "num_devices": 2}
    assert spec.iterations != 4
    default = InferenceCampaign.__init__.__defaults__
    assert default == (0, None, 2)


def test_served_batches_and_campaign_units_agree_fault_by_fault(
        campaign, tmp_path, monkeypatch):
    """At ``shadow_rate=1`` a served batch over the campaign's golden
    batch, with one campaign fault armed, is classified per row; its
    worst row outcome is the campaign unit's outcome, for every fault.
    Eval kernels are batch-invariant, so the two are equal, not close."""
    n, seed, batch = 200, 3, 16
    path = tmp_path / "s.jsonl"
    campaign.run(n, seed=seed, batch=batch, store=path)
    with ResultStore(path, resume=True) as done:
        units = sorted(done.completed.values(), key=lambda p: p["index"])

    rng = np.random.default_rng(seed)
    faults = [sample_forward_fault(campaign.model, rng) for _ in range(n)]
    assert [fault_to_dict(f) for f in faults] == [u["fault"] for u in units]

    engine = ServingEngine(campaign.session, fault_rate=1.0, shadow_rate=1.0)
    requests = [{"index": i} for i in range(batch)]
    served = []
    for fault in faults:
        injector = FaultInjector(fault)

        def arm(_batch_size, injector=injector):
            injector.arm(None, campaign.model)
            return [injector]

        monkeypatch.setattr(engine.plane, "arm", arm)
        rows = [r["outcome"] for r in engine._execute_batch(requests)]
        assert injector.fired and all(row is not None for row in rows)
        served.append(classify_inference_experiment(
            sdc=InferenceOutcome.SDC.value in rows,
            nonfinite=InferenceOutcome.NONFINITE.value in rows).value)
    assert served == [u["outcome"] for u in units]
    counts = Counter(served)
    assert counts["sdc"] >= 1 and counts["masked"] >= 100


def _inference_store(campaign, path) -> bytes:
    campaign.run(16, seed=99, store=path)
    return path.read_bytes()


def test_resume_refuses_another_model(campaign, tmp_path):
    """A campaign on another model used to resume a store, run nothing,
    and return the store's 16 results as its own."""
    path = tmp_path / "s.jsonl"
    before = _inference_store(campaign, path)
    other = InferenceCampaign(campaign.spec, seed=5, train_iterations=3)
    with pytest.raises(ValueError,
                       match="differs .* in seed, train_iterations$"):
        other.run(16, seed=99, store=path, resume=True)
    with pytest.raises(ValueError, match="differs .* in batch$"):
        campaign.run(16, seed=99, batch=8, store=path, resume=True)
    assert path.read_bytes() == before


def test_resume_refuses_another_fault_seed_and_extends_on_growth(
        campaign, tmp_path):
    """Another fault seed used to append 16 more units under the
    16-experiment header; the same seed with a larger n extends the
    store."""
    path = tmp_path / "s.jsonl"
    before = _inference_store(campaign, path)
    with pytest.raises(ValueError, match="are not in this run"):
        campaign.run(16, seed=7, store=path, resume=True)
    assert path.read_bytes() == before
    grown = campaign.run(24, seed=99, store=path, resume=True)
    assert grown["num_experiments"] == 24
    with ResultStore(path, resume=True) as store:
        assert len(store) == 24
