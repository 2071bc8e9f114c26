"""Tests for campaign diffing (repro.replay.diff) and the deterministic
JSON surfaces that feed it (report --json, monitor --json)."""

import json

import pytest

from repro.core.analysis import stable_floats
from repro.core.faults.campaign import Campaign
from repro.engine import (
    RESTART,
    RETRY,
    ResultStore,
    collect,
    read_records,
    snapshot_dict,
)
from repro.observe import DETECTOR_FIRED, FAULT_INJECTED, Tracer
from repro.observe.merge import campaign_trace_path
from repro.replay import QUARANTINED, diff_campaigns, render_diff
from repro.workloads import build_workload


def _make_store(path, rows, quarantined=()):
    """rows: list of (key, outcome)."""
    with ResultStore(path, kind="campaign",
                     meta={"num_experiments": len(rows)}) as store:
        for key, outcome in rows:
            store.append(key, {"outcome": outcome})
        for key, error in quarantined:
            store.quarantine(key, error)
    return path


def _make_trace(store_path, detections):
    """detections: list of (key, fault_iteration, detected_at | None)."""
    trace = campaign_trace_path(store_path)
    with Tracer(stream=trace) as tracer:
        for key, injected_at, detected_at in detections:
            tracer.emit(FAULT_INJECTED, iteration=injected_at, key=key)
            if detected_at is not None:
                tracer.emit(DETECTOR_FIRED, iteration=detected_at, key=key,
                            condition="history_magnitude")
    return trace


class TestDiffCampaigns:
    def test_identical_stores_have_no_flips(self, tmp_path):
        rows = [("k1", "masked_improved"), ("k2", "immediate_inf_nan")]
        a = _make_store(tmp_path / "a.jsonl", rows)
        b = _make_store(tmp_path / "b.jsonl", rows)
        diff = diff_campaigns(a, b)
        assert diff["flip_count"] == 0 and diff["flips"] == []
        assert diff["transitions"] == {
            "immediate_inf_nan -> immediate_inf_nan": 1,
            "masked_improved -> masked_improved": 1,
        }
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []
        assert diff["detection"] is None  # no traces next to the stores

    def test_transition_matrix_and_flips(self, tmp_path):
        a = _make_store(tmp_path / "a.jsonl", [
            ("k1", "masked_improved"), ("k2", "masked_improved"),
            ("k3", "immediate_inf_nan"), ("k4", "masked_improved")])
        b = _make_store(tmp_path / "b.jsonl", [
            ("k1", "masked_improved"), ("k2", "low_test_accuracy"),
            ("k3", "latent_inf_nan"), ("k4", "masked_improved")])
        diff = diff_campaigns(a, b)
        assert diff["flip_count"] == 2
        assert diff["transitions"]["masked_improved -> masked_improved"] == 2
        assert diff["transitions"]["masked_improved -> low_test_accuracy"] == 1
        assert diff["transitions"]["immediate_inf_nan -> latent_inf_nan"] == 1
        assert [f["key"] for f in diff["flips"]] == ["k2", "k3"]
        assert diff["outcomes_a"] == {"immediate_inf_nan": 1,
                                      "masked_improved": 3}

    def test_quarantine_is_a_pseudo_outcome(self, tmp_path):
        a = _make_store(tmp_path / "a.jsonl", [("k1", "masked_improved")])
        b = _make_store(tmp_path / "b.jsonl", [],
                        quarantined=[("k1", "Timeout: stuck")])
        diff = diff_campaigns(a, b)
        assert diff["transitions"] == {f"masked_improved -> {QUARANTINED}": 1}
        assert diff["flips"] == [{"key": "k1", "a": "masked_improved",
                                  "b": QUARANTINED}]

    def test_new_and_missing_keys(self, tmp_path):
        a = _make_store(tmp_path / "a.jsonl", [("k1", "x"), ("k2", "x")])
        b = _make_store(tmp_path / "b.jsonl", [("k2", "x"), ("k3", "x")])
        diff = diff_campaigns(a, b)
        assert diff["experiments"] == {"a": 2, "b": 2, "common": 1}
        assert diff["only_in_a"] == ["k1"]
        assert diff["only_in_b"] == ["k3"]

    def test_detection_latency_deltas(self, tmp_path):
        rows = [("k1", "x"), ("k2", "x")]
        a = _make_store(tmp_path / "a.jsonl", rows)
        b = _make_store(tmp_path / "b.jsonl", rows)
        _make_trace(a, [("k1", 3, 5), ("k2", 3, None)])
        _make_trace(b, [("k1", 3, 7), ("k2", 3, 4)])
        diff = diff_campaigns(a, b)
        detection = diff["detection"]
        assert detection["caught"] == {"a": 1, "b": 2}
        assert detection["mean_latency"]["a"] == 2.0
        assert detection["mean_latency"]["b"] == 2.5
        assert detection["deltas"] == [
            {"key": "k1", "a": 2, "b": 4},
            {"key": "k2", "a": None, "b": 1},
        ]

    def test_render_diff_flags_flips(self, tmp_path):
        a = _make_store(tmp_path / "a.jsonl", [("k1", "masked_improved")])
        b = _make_store(tmp_path / "b.jsonl", [("k1", "latent_inf_nan")])
        text = render_diff(diff_campaigns(a, b))
        assert "flipped experiments (1):" in text
        assert "masked_improved -> latent_inf_nan" in text
        clean = render_diff(diff_campaigns(a, a))
        assert "no outcome flips" in clean

    def test_cli_exit_codes_and_json_determinism(self, tmp_path, capsys):
        from repro.cli import main

        a = _make_store(tmp_path / "a.jsonl", [("k1", "x")])
        b = _make_store(tmp_path / "b.jsonl", [("k1", "y")])
        assert main(["diff-campaign", str(a), str(a)]) == 0
        capsys.readouterr()
        assert main(["diff-campaign", str(a), str(b)]) == 1
        capsys.readouterr()
        assert main(["diff-campaign", str(a), str(b), "--json"]) == 1
        first = capsys.readouterr().out
        assert main(["diff-campaign", str(a), str(b), "--json"]) == 1
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["flip_count"] == 1


# ----------------------------------------------------------------------
# Deterministic JSON surfaces
# ----------------------------------------------------------------------
class TestStableFloats:
    def test_normalizes_repr_noise(self):
        assert stable_floats(0.1 + 0.2) == stable_floats(0.3)
        assert stable_floats(1.0) == 1.0

    def test_recurses_containers(self):
        value = {"a": [0.1 + 0.2, {"b": (0.3,)}], "c": "s", "d": 3}
        out = stable_floats(value)
        assert out["a"][0] == 0.3
        assert out["a"][1]["b"] == [0.3]
        assert out["c"] == "s" and out["d"] == 3

    def test_nonfinite_passes_through(self):
        inf, nan = stable_floats([float("inf"), float("nan")])
        assert inf == float("inf")
        assert nan != nan


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    """One small real campaign with a store + merged trace."""
    tmp_path = tmp_path_factory.mktemp("diffcamp")
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, warmup_iterations=2, horizon=6,
                        test_every=3)
    store = tmp_path / "camp.jsonl"
    campaign.run(2, seed=7, store=store, trace=True)
    return store


class TestDeterministicOutputs:
    def test_report_json_is_byte_stable(self, campaign_store, capsys):
        from repro.cli import main

        assert main(["report", str(campaign_store), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(campaign_store), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)  # sorted keys

    def test_monitor_snapshot_ignores_wall_clock(self, campaign_store):
        early = collect(campaign_store, now=0.0)
        late = collect(campaign_store, now=1e12)
        assert snapshot_dict(early) == snapshot_dict(late)
        dumped = json.dumps(snapshot_dict(early), sort_keys=True)
        assert json.loads(dumped) == snapshot_dict(early)

    def test_monitor_json_cli_is_byte_stable(self, campaign_store, capsys):
        from repro.cli import main

        assert main(["monitor", str(campaign_store), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["monitor", str(campaign_store), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["completed"] == 2
        for volatile in ("throughput", "eta", "last_result_age"):
            assert volatile not in snapshot

    def test_same_campaign_diffs_clean_against_itself(self, campaign_store):
        diff = diff_campaigns(campaign_store, campaign_store)
        assert diff["flip_count"] == 0
        assert diff["detection"] is not None  # trace sits next to the store
        assert diff["detection"]["deltas"] == []

    def test_engine_records_change_no_reader(self, campaign_store, tmp_path,
                                             capsys):
        """A store's session, lease, retry and restart records are the
        monitor's: a resume, `report --json` and `diff-campaign` read the
        store as if they were not there."""
        from repro.cli import main

        noted, bare = tmp_path / "camp.jsonl", tmp_path / "bare" / "camp.jsonl"
        bare.parent.mkdir()
        noted.write_bytes(campaign_store.read_bytes())
        with ResultStore(noted, resume=True) as store:
            store.note(RETRY, key="k", attempt=1, error="RuntimeError")
            store.note(RESTART, worker=0)
        assert {r["record"] for r in read_records(noted)} == {
            "header", "session", "lease", "experiment", "retry", "restart"}
        bare.write_text("".join(
            line for line in noted.read_text().splitlines(keepends=True)
            if json.loads(line)["record"] in ("header", "experiment")))
        trace = campaign_trace_path(campaign_store).read_bytes()
        for path in (noted, bare):
            campaign_trace_path(path).write_bytes(trace)

        def resumed(path):
            with ResultStore(path, resume=True) as store:
                return store.completed, store.quarantined, store.meta

        def report(path):
            assert main(["report", str(path), "--json"]) == 0
            return {k: v for k, v in json.loads(capsys.readouterr().out).items()
                    if k != "store"}

        def diff(path):
            assert main(["diff-campaign", str(path), str(bare),
                         "--json"]) == 0
            return {k: v for k, v in json.loads(capsys.readouterr().out).items()
                    if k != "a"}

        assert resumed(noted) == resumed(bare)
        assert report(noted) == report(bare)
        assert diff(noted) == diff(bare)
        assert diff(noted)["detection"] is not None
