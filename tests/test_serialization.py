"""Tests for fault and experiment-result serialization."""

import json
from pathlib import Path

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis import campaign_report_dict
from repro.core.faults import Campaign, HardwareFault, OpSite, PinnedMagnitude
from repro.core.faults.serialization import (
    experiment_from_dict,
    experiment_to_dict,
    fault_from_dict,
    fault_to_dict,
)
from repro.engine import experiment_key
from repro.workloads import build_workload

CORPUS_PATH = Path(__file__).parent / "data" / "replay_corpus.json"


@pytest.fixture(scope="module")
def small_result():
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=6,
                        horizon=12, inject_window=4, test_every=6)
    return campaign.run(num_experiments=4, seed=2)


class TestFaultRoundTrip:
    @pytest.mark.parametrize("ff", [
        FFDescriptor("datapath", bit=30, has_feedback=True),
        FFDescriptor("local_control"),
        FFDescriptor("global_control", group=7, has_feedback=True),
    ])
    def test_round_trip(self, ff):
        fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "forward"),
                              iteration=12, device=3, seed=99)
        back = fault_from_dict(fault_to_dict(fault))
        assert back.ff == fault.ff
        assert back.site == fault.site
        assert (back.iteration, back.device, back.seed) == (12, 3, 99)

    def test_json_stable(self):
        fault = HardwareFault(ff=FFDescriptor("datapath", bit=5),
                              site=OpSite("x", "forward"), iteration=1,
                              device=0, seed=2)
        text = json.dumps(fault_to_dict(fault))
        assert fault_from_dict(json.loads(text)).ff.bit == 5

    def test_pinned_round_trip(self):
        fault = HardwareFault(ff=FFDescriptor("global_control", group=1),
                              site=OpSite("4.weight", "weight_update"),
                              iteration=7, device=1, seed=4,
                              pinned=PinnedMagnitude(1e12, 512, coherent=True))
        data = json.loads(json.dumps(fault_to_dict(fault)))
        assert data["pinned"] == {"magnitude": 1e12, "elements": 512,
                                  "coherent": True}
        assert fault_from_dict(data) == fault

    def test_sampled_fault_dict_has_no_pinned_key(self):
        """The field is additive: a sampled fault's dict — and so every
        stored experiment key — is what it was without it."""
        fault = HardwareFault(ff=FFDescriptor("datapath", bit=5),
                              site=OpSite("x", "forward"), iteration=1,
                              device=0, seed=2)
        assert fault_to_dict(fault) == {
            "ff": {"category": "datapath", "group": None, "bit": 5,
                   "has_feedback": False},
            "site": {"module_name": "x", "kind": "forward"},
            "iteration": 1, "device": 0, "seed": 2}
        assert fault_from_dict(fault_to_dict(fault)).pinned is None

    def test_corpus_keys_unchanged(self):
        for entry in json.loads(CORPUS_PATH.read_text())["entries"]:
            fault = fault_from_dict(entry["fault"])
            assert experiment_key(entry["index"], fault_to_dict(fault)) \
                == entry["key"]


def _round_trip(result):
    """Through the store's payload format and JSON text, as the
    ``ResultStore`` writes and reads it."""
    return experiment_from_dict(json.loads(json.dumps(
        experiment_to_dict(result))))


class TestCampaignRoundTrip:
    def test_preserves_statistics(self, small_result):
        back = [experiment_to_dict(experiment_from_dict(json.loads(
            json.dumps(p)))) for p in small_result.payloads]
        assert campaign_report_dict(back) == \
            campaign_report_dict(small_result.payloads)
        assert [p["fault"] for p in back] == \
            [p["fault"] for p in small_result.payloads]

    def test_nonfinite_values_survive(self, small_result):
        # Force an inf condition value and round-trip it.
        result = small_result.results[0]
        result.condition_window["max_mvar"] = float("inf")
        assert _round_trip(result).condition_window["max_mvar"] == float("inf")


class TestSchemaVersion:
    def test_foreign_number_strings_rejected(self, small_result):
        """Strings the writer never emits (e.g. "NaN" from another tool)
        must raise instead of being silently coerced by float()."""
        data = experiment_to_dict(small_result.results[0])
        data["max_abs_faulty"] = "NaN"
        with pytest.raises(ValueError, match="unrecognized serialized number"):
            experiment_from_dict(data)
