"""One story at any lease size (DESIGN.md decision 10).

A lease is a list of one or more work units and one function executes
it, so what an experiment leaves behind — its events in the merged
campaign trace, its detections in its record — must not depend on
how many units shared its lease or on how many workers ran the leases.
"""

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import Campaign, HardwareFault, OpSite
from repro.engine import scheduler
from repro.observe import (
    FAULT_INJECTED,
    StampedView,
    Tracer,
    analysis,
    read_trace,
)
from repro.replay import CampaignCache, normalize_events, replay, replay_record
from repro.workloads import build_workload

SITE_KINDS = ("forward", "weight_grad", "input_grad", "comm")
#: Group-1 control faults in the stem: the detector fires on both, for
#: iterations on end.
CONTROL = FFDescriptor("global_control", group=1, has_feedback=True)
LOUD = [HardwareFault(CONTROL, OpSite("0.1", "weight_grad"), 5, 1, 2),
        HardwareFault(CONTROL, OpSite("1.conv1", "weight_grad"), 4, 0, 2)]


def _campaign(batch: int) -> Campaign:
    return Campaign(build_workload("resnet", size="tiny"), num_devices=2,
                    warmup_iterations=4, horizon=8, inject_window=3,
                    test_every=4, detect=True, site_kinds=SITE_KINDS,
                    backend="batched" if batch > 1 else "inprocess",
                    experiment_batch=batch)


@pytest.fixture(scope="module")
def faults():
    faults = _campaign(1).sample_faults(8, seed=21) + LOUD[:1]
    assert any(fault.site.kind == "comm" for fault in faults)
    return faults


@pytest.fixture(scope="module")
def traced_runs(faults, tmp_path_factory):
    """(parallel, E) -> (merged trace path, shard-merge accounting) of
    the same fault list run through the engine."""
    merges = []
    real = scheduler.merge_campaign_shards

    def recording(store_path):
        merges.append(real(store_path))
        return merges[-1]

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "merge_campaign_shards", recording)
        for parallel, batch in ((1, 1), (1, 4), (2, 4)):
            store = tmp_path_factory.mktemp(f"p{parallel}e{batch}") / "s.jsonl"
            result = _campaign(batch).run(faults=faults, parallel=parallel,
                                          store=store, trace=True)
            runs[parallel, batch] = (result.engine_report.trace_path,
                                     merges[-1])
    return runs


def _stories(trace_path) -> dict[str, list[str]]:
    """key -> canonical training events, from a merged campaign trace."""
    return {key: normalize_events(story) for key, story
            in analysis.experiments(read_trace(trace_path)).items()}


def test_merged_trace_tells_the_same_story_at_any_lease_size(traced_runs,
                                                             faults):
    solo, *leased = [_stories(path) for path, _merge in traced_runs.values()]
    assert len(solo) == len(faults)
    for key, story in solo.items():
        # Every fault here arms its injector; the loud one also fires
        # the detector.
        assert sum(f'"type":"{FAULT_INJECTED}"' in line
                   for line in story) == 1, key
    assert any('"type":"detector_fired"' in line
               for story in solo.values() for line in story)
    for stories in leased:
        assert stories == solo
    for _path, merge in traced_runs.values():
        assert merge.unkeyed_dropped == 0
        assert merge.incomplete == []
        assert merge.experiments == len(faults)


def test_block_leased_trace_replays_with_its_events_verified(traced_runs):
    trace_path, _merge = traced_runs[1, 4]
    cache = CampaignCache()
    for key in _stories(trace_path):
        report = replay(replay_record(trace_path, key), verify_trace=True,
                        cache=cache)
        assert report.ok, report.mismatches
        assert report.events_match is True


def test_record_without_events_fails_verification_cleanly(traced_runs):
    """A trace written by a block lease before leases kept their
    experiments' events stores markers only: ``--verify-trace`` has
    nothing to verify and must say so, not pass as ``n/a``."""
    trace_path, _merge = traced_runs[1, 4]
    record = replay_record(trace_path, next(iter(_stories(trace_path))))
    record.events, record.events_sha256 = [], None
    report = replay(record, verify_trace=True)
    assert report.outcome_match and report.arena_match is True
    assert report.events_match is False
    assert not report.ok
    assert any("no training events" in m for m in report.mismatches)


@pytest.mark.parametrize("method", ["run_experiment", "run_experiment_batch"])
def test_detection_latency_is_observed_on_either_path(method):
    """One body runs one experiment or several, so every experiment's
    detection latency is in its record and in its trace the same way
    (a batch used to observe nothing)."""
    campaign = _campaign(2)
    tracer = Tracer()
    views = [StampedView(tracer, key=f"k{i}") for i in range(len(LOUD))]
    if method == "run_experiment":
        results = [campaign.run_experiment(fault, view)
                   for fault, view in zip(LOUD, views)]
    else:
        results = campaign.run_experiment_batch(LOUD, views)
    from_records = [result.record.detections[0] - fault.iteration
                    for result, fault in zip(results, LOUD)]
    from_trace = {row["key"]: row["latency"]
                  for row in analysis.detection_latencies(tracer.events())}
    assert all(latency >= 0 for latency in from_records)
    assert from_trace == {f"k{i}": latency
                          for i, latency in enumerate(from_records)}