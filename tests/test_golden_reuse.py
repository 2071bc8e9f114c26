"""Golden-run reuse must be invisible (DESIGN.md decision 9).

An experiment starts at its fault iteration on the reference run's state
and stops once its own state equals the reference run's to the byte; the
rows it did not train come from the reference record.  The oracle is the
path that trains every iteration from the warm-up rung
(``conftest.full_horizon``): store payload, full convergence record and
canonical event stream must be equal, for every kind of experiment.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import Campaign, InferenceCampaign
from repro.core.faults import campaign as campaign_module
from repro.core.faults.hardware import (
    HardwareFault,
    OpSite,
    enumerate_sites,
    site_layers,
)
from repro.core.faults.serialization import experiment_to_dict
from repro.distributed import SyncDataParallelTrainer
from repro.engine import ResultStore
from repro.observe import Tracer
from repro.replay.record import normalize_events
from repro.workloads import build_workload, workload_names

#: Four workloads that take the lane step and one that takes the solo
#: loop (Dropout, attention: not lane-native).
WORKLOADS = ["resnet", "resnet_nobn", "resnet_sgd", "yolo", "transformer"]

CONFIGS = {
    # benchmarks/perf's campaign: test points (15, 23) only after the
    # injection window (8..13).
    "harness": dict(num_devices=8, warmup_iterations=8, horizon=16,
                    inject_window=6, test_every=8),
    # Test points (3, 5, 7, ...) inside the prefix and at the fault
    # iteration itself (window 3..6).
    "test-every-2": dict(num_devices=2, warmup_iterations=3, horizon=9,
                         inject_window=4, test_every=2),
}
SITE_KINDS = ("forward", "weight_grad", "input_grad", "comm")
BATCH = 3


def _campaign(workload: str, config: str, detect: bool) -> Campaign:
    campaign = Campaign(
        build_workload(workload, size="tiny"), **CONFIGS[config],
        detect=detect, site_kinds=SITE_KINDS,
        backend="batched", experiment_batch=BATCH)
    campaign.prepare()
    return campaign


def _faults(campaign: Campaign, sampled: int, seed: int) -> list[HardwareFault]:
    """Sampled faults plus directed ones: a large control fault at the
    first site of each kind (the stem: non-finite stop, detector firing,
    discarded input gradient), at the warm-up boundary, mid-window and on
    a test point."""
    faults = campaign.sample_faults(sampled, seed=seed)
    warm = campaign.warmup_iterations
    on_test = next((t for t in range(warm, warm + campaign.inject_window)
                    if (t + 1) % campaign.test_every == 0), warm + 2)
    control = FFDescriptor("global_control", group=1, has_feedback=True)
    first: dict[str, object] = {}
    for site in enumerate_sites(campaign._site_model):
        first.setdefault(site.kind, site)
    for k, (kind, t) in enumerate((("forward", warm + 1),
                                   ("weight_grad", on_test),
                                   ("input_grad", warm + 2))):
        faults.append(HardwareFault(ff=control, site=first[kind], iteration=t,
                                    device=1, seed=k + 1))
    faults.append(replace(faults[0], iteration=warm))
    return faults


def _stories(campaign: Campaign, faults: list[HardwareFault],
             block: int) -> list[tuple]:
    """(store payload, record, canonical events) per block of faults.
    Within a batch the experiments' events interleave by round, so a
    batch's stream is compared as a multiset."""
    stories = []
    for start in range(0, len(faults), block):
        tracer = Tracer()
        if block == 1:
            results = [campaign.run_experiment(faults[start], tracer=tracer)]
            events = normalize_events(tracer.events())
        else:
            results = campaign.run_experiment_batch(
                faults[start:start + block], [tracer] * block)
            events = sorted(normalize_events(tracer.events()))
        stories.append(([experiment_to_dict(r) for r in results],
                        [_record(r.record) for r in results], events))
    return stories


def _record(record) -> dict:
    """Every column of a convergence record, floats as hex (bit-exact,
    and NaN compares equal to itself)."""
    columns = dict(record.to_dict(),
                   history_magnitude=record.history_magnitude,
                   mvar_magnitude=record.mvar_magnitude)
    return {name: [v.hex() if isinstance(v, float) else v for v in column]
            if isinstance(column, list) else column
            for name, column in columns.items()}


@pytest.fixture
def trained_iterations(monkeypatch):
    """Counts optimizer updates, i.e. iterations actually trained."""
    count = [0]
    original = SyncDataParallelTrainer.apply_update

    def counted(self, iteration):
        count[0] += 1
        return original(self, iteration)

    monkeypatch.setattr(SyncDataParallelTrainer, "apply_update", counted)
    return count


def test_every_kind_of_experiment_equals_its_full_horizon_run(
        full_horizon, trained_iterations):
    """The harness configuration on ``resnet``: each experiment alone,
    reuse vs full horizon — and the four kinds of experiment are all
    present, so equality is not vacuous."""
    campaign = _campaign("resnet", "harness", detect=True)
    warm, horizon = campaign.warmup_iterations, campaign.horizon
    faults = _faults(campaign, sampled=4, seed=1)
    kinds: defaultdict[str, int] = defaultdict(int)
    total = 0
    for fault in faults:
        trained_iterations[0] = 0
        (story,) = _stories(campaign, [fault], 1)
        steps = trained_iterations[0]
        total += steps
        with full_horizon():
            (oracle,) = _stories(campaign, [fault], 1)
        assert story == oracle, fault
        nonfinite_at = story[1][0]["nonfinite_at"]
        left = warm + horizon - fault.iteration
        if nonfinite_at is not None:
            kinds["non-finite stop"] += 1
            assert steps == nonfinite_at - fault.iteration + 1
        elif steps == 1 and left > 1:
            kinds["spliced"] += 1
        else:
            assert steps == left
        kinds["fast-forwarded" if fault.iteration > warm else "t == W"] += 1
        if story[1][0]["detections"]:
            kinds["detector fired"] += 1
    assert set(kinds) == {"non-finite stop", "spliced", "fast-forwarded",
                          "t == W", "detector fired"}, dict(kinds)
    assert total < len(faults) * horizon


def _flat(stories: list[tuple], part: int) -> list:
    return [item for story in stories for item in story[part]]


@pytest.mark.parametrize("detect", [False, True], ids=["plain", "detect"])
@pytest.mark.parametrize("workload, config", [
    # Eight devices cost four times two: beyond ``resnet`` the harness
    # configuration runs in the slow lane.
    pytest.param(workload, config, marks=[pytest.mark.slow] if (
        config == "harness" and workload != "resnet") else [])
    for workload in WORKLOADS for config in CONFIGS])
def test_reuse_equals_full_horizon(full_horizon, trained_iterations,
                                   workload, config, detect):
    """E = 1 and E = 3 under reuse against one oracle, the experiments
    alone over the full horizon (full-horizon batch == solo is
    ``test_batched_backend``'s)."""
    campaign = _campaign(workload, config, detect)
    faults = _faults(campaign, sampled=2, seed=7)
    assert len(faults) % BATCH == 0
    trained_iterations[0] = 0  # preparation trained too
    alone = _stories(campaign, faults, 1)
    batched = _stories(campaign, faults, BATCH)
    steps = trained_iterations[0]
    with full_horizon():
        oracle = _stories(campaign, faults, 1)
    assert alone == oracle
    assert _flat(batched, 0) == _flat(oracle, 0)
    assert _flat(batched, 1) == _flat(oracle, 1)
    assert sorted(_flat(batched, 2)) == sorted(_flat(oracle, 2))
    # Reuse did skip work: two passes trained less than the oracle's one
    # would have, twice.
    assert steps < 2 * (trained_iterations[0] - steps)


def test_reference_run_that_fired_the_detector_forbids_reuse(
        trained_iterations):
    """An Algorithm 1 false positive on fault-free state must surface in
    every experiment, not be spliced over: the campaign then trains the
    full horizon — selected from what it observes, not by a setting."""
    campaign = _campaign("resnet", "test-every-2", detect=True)
    assert campaign._golden_reuse()
    fault = replace(campaign.sample_faults(1, seed=3)[0],
                    iteration=campaign.warmup_iterations + 2)
    trained_iterations[0] = 0  # preparation trained too
    campaign.run_experiment(fault)
    assert trained_iterations[0] < campaign.horizon
    campaign.reference.detections.append(campaign.warmup_iterations)
    assert not campaign._golden_reuse()
    trained_iterations[0] = 0
    campaign.run_experiment(fault)
    assert trained_iterations[0] == campaign.horizon


@pytest.mark.parametrize("backend, block", [("inprocess", 1), ("batched", BATCH)])
def test_detect_changes_no_payload_byte(backend, block):
    """What reuse rests on, and Sec. 5.1: the detector only reads.
    ``detect=True`` adds ``detector_fired`` events and ``detections`` and
    nothing else — store payloads, final state digest included, are the
    ``detect=False`` campaign's, on both backend names."""
    plain, detecting = (
        Campaign(build_workload("resnet", size="tiny"), num_devices=2,
                 warmup_iterations=4, horizon=8, inject_window=3,
                 test_every=4, detect=detect, site_kinds=SITE_KINDS,
                 backend=backend, experiment_batch=block)
        for detect in (False, True))
    faults = plain.sample_faults(10, seed=21)
    # Two faults the detector fires on for iterations on end.
    control = FFDescriptor("global_control", group=1, has_feedback=True)
    faults += [HardwareFault(control, OpSite("0.1", "weight_grad"), 5, 1, 2),
               HardwareFault(control, OpSite("1.conv1", "weight_grad"), 4, 0, 2)]
    assert any(f.site.kind == "comm" for f in faults)

    quiet = _stories(plain, faults, block)
    loud = _stories(detecting, faults, block)
    assert _flat(loud, 0) == _flat(quiet, 0)
    assert all(payload["arena_sha256"] for payload in _flat(loud, 0))
    fired = [record.pop("detections") for record in _flat(loud, 1)]
    assert sum(map(bool, fired)) >= 2
    assert not any(record.pop("detections") for record in _flat(quiet, 1))
    assert _flat(loud, 1) == _flat(quiet, 1)
    assert [story[2] for story in loud] != [story[2] for story in quiet]
    assert [[e for e in story[2] if '"type":"detector_fired"' not in e]
            for story in loud] == [story[2] for story in quiet]


@pytest.mark.parametrize("workload", workload_names())
def test_inference_unit_from_its_fault_layer_equals_from_layer_0(
        workload, tmp_path, monkeypatch):
    """Layers upstream of the fault site compute golden activations, so
    a unit forwards from the top-level layer holding its site: per-unit
    results equal the whole-model forward's."""
    campaign = InferenceCampaign(build_workload(workload, size="tiny"),
                                 train_iterations=4, num_devices=2)

    def units(name: str) -> list[tuple]:
        store = tmp_path / f"{name}.jsonl"
        campaign.run(40, seed=5, batch=8, store=store)
        with ResultStore(store, resume=True) as done:
            return sorted((p["index"], p["fault"]["site"]["module_name"],
                           p["sdc"], p["nonfinite"], p["outcome"])
                          for p in done.completed.values())

    from_site = units("site")
    layers = site_layers(campaign.model)
    assert sum(layers[site] > 0 for _i, site, *_rest in from_site) >= 10
    monkeypatch.setattr(campaign_module, "site_layers",
                        lambda model: defaultdict(int))
    assert units("layer0") == from_site
