"""Tests for :mod:`repro.replay`: record extraction, round-trip replays,
corrupt-trace handling, and the pinned-corpus CI gate."""

import json
from pathlib import Path

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import HardwareFault, OpSite, PinnedMagnitude
from repro.core.faults.campaign import Campaign
from repro.engine import experiment_key, read_records
from repro.engine.worker import UnitCapture
from repro.observe import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    FAULT_INJECTED,
    Tracer,
)
from repro.observe.tracer import read_trace
from repro.replay import (
    CampaignCache,
    ReplayError,
    canonical_event,
    entry_to_record,
    events_digest,
    load_corpus,
    normalize_events,
    replay,
    replay_keys,
    replay_record,
    run_corpus,
    save_corpus,
    verify_key,
)
from repro.workloads import build_workload

CORPUS_PATH = Path(__file__).parent / "data" / "replay_corpus.json"

#: A structurally valid fault descriptor (content does not matter for
#: record-extraction tests; no campaign is ever built from it).
FAULT = {
    "ff": {"category": "datapath", "group": "mult", "bit": 30,
           "has_feedback": False},
    "site": {"module_name": "blocks.0.conv1", "kind": "forward"},
    "iteration": 3, "device": 0, "seed": 42,
}

#: Minimal config for synthetic traces; extraction never runs it.
CONFIG = {"backend": "inprocess"}


def _campaign(backend="inprocess", experiment_batch=1, **kwargs):
    spec = build_workload("resnet", size="tiny", seed=0)
    return Campaign(spec, num_devices=2, warmup_iterations=2, horizon=6,
                    test_every=3, backend=backend,
                    experiment_batch=experiment_batch, **kwargs)


def _traced_run(tmp_path, backend="inprocess", experiment_batch=1,
                num_experiments=2):
    """Run a small traced campaign; returns (store_path, trace_path)."""
    campaign = _campaign(backend, experiment_batch)
    store = tmp_path / "camp.jsonl"
    result = campaign.run(num_experiments, seed=7, store=store, trace=True)
    trace = result.engine_report.trace_path
    assert trace is not None and trace.exists()
    return store, trace


def _synthetic_trace(path, *, config=CONFIG, key=None, unit="full",
                     attempts=1, finish=True):
    """A hand-built merged-style trace exercising one experiment story.

    ``unit`` selects the started marker's payload: "full" (replayable),
    "none" (pre-replay format), or "absent" (no started marker at all).
    """
    key = key or experiment_key(0, FAULT)
    meta = {"store_meta": {"config": config}} if config is not None else {}
    with Tracer(stream=path, meta=meta) as tracer:
        capture = UnitCapture(tracer, 0)
        for _ in range(attempts):
            if unit == "absent":
                tracer.emit(EXPERIMENT_FINISHED, key=key, attempt=0,
                            status="done", outcome="masked_improved")
                continue
            payload = {"index": 0, "fault": FAULT} if unit == "full" else None
            view = capture.start(key, payload)
            view.emit("iteration_stats", iteration=0, loss=1.0)
            if finish:  # else the attempt stays open
                capture.done(view, {"outcome": "masked_improved",
                                    "arena_sha256": "ab" * 32})
    return key


# ----------------------------------------------------------------------
# Record completeness: traces carry everything a replay needs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("replay")
    return _traced_run(tmp_path)


class TestRecordCompleteness:
    def test_started_marker_carries_work_unit_payload(self, traced_campaign):
        _, trace_path = traced_campaign
        started = [e for e in read_trace(trace_path).events
                   if e.type == EXPERIMENT_STARTED]
        assert started
        for event in started:
            unit = event.data["unit"]
            assert isinstance(unit["index"], int)
            fault = unit["fault"]
            assert set(fault) == {"ff", "site", "iteration", "device", "seed"}
            assert experiment_key(unit["index"], fault) == event.data["key"]

    def test_finished_marker_carries_outcome_and_arena(self, traced_campaign):
        _, trace_path = traced_campaign
        finished = [e for e in read_trace(trace_path).events
                    if e.type == EXPERIMENT_FINISHED
                    and e.data.get("status") == "done"]
        assert finished
        for event in finished:
            assert isinstance(event.data["outcome"], str)
            arena = event.data["arena_sha256"]
            assert len(arena) == 64 and int(arena, 16) >= 0

    def test_config_reaches_store_and_trace_headers(self, traced_campaign):
        store_path, trace_path = traced_campaign
        store_config = read_records(store_path)[0]["meta"]["config"]
        trace_config = read_trace(trace_path).meta["store_meta"]["config"]
        assert store_config == trace_config
        for field in ("workload", "size", "workload_seed", "num_devices",
                      "seed", "warmup_iterations", "horizon", "test_every",
                      "thresholds", "site_kinds", "detect", "backend",
                      "experiment_batch"):
            assert field in store_config, field

    def test_replay_record_round_trips_the_story(self, traced_campaign):
        _, trace_path = traced_campaign
        keys = replay_keys(trace_path)
        assert len(keys) == 2
        for key in keys:
            record = replay_record(trace_path, key)
            verify_key(record)  # content hash matches index x fault
            assert record.backend == "inprocess"
            assert record.outcome is not None
            assert record.arena_sha256 is not None
            assert record.events
            assert record.events_sha256 == events_digest(record.events)


# ----------------------------------------------------------------------
# Round trip: record on backend B, replay on backend B, bit-for-bit
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("backend,batch,num", [
        pytest.param("inprocess", 1, 2, id="inprocess"),
        pytest.param("batched", 2, 4, id="batched",
                     marks=[pytest.mark.slow, pytest.mark.backend]),
    ])
    def test_replay_reproduces_recording(self, tmp_path, backend, batch, num):
        _, trace_path = _traced_run(tmp_path, backend, batch, num)
        keys = replay_keys(trace_path)
        assert len(keys) == num
        cache = CampaignCache()
        for key in keys[:2]:
            record = replay_record(trace_path, key)
            assert record.backend == backend
            report = replay(record, verify_trace=True, cache=cache)
            assert report.ok, report.mismatches
            assert report.outcome_match
            assert report.arena_match is True
            # Every lease, of one unit or several, stores each
            # experiment's full attributable event stream.
            assert report.events_match is True

    @pytest.mark.slow
    @pytest.mark.backend
    def test_cross_backend_replay_matches(self, tmp_path):
        """Outcomes and state bytes are backend-invariant, so a record
        made on one backend replays clean on another."""
        _, trace_path = _traced_run(tmp_path, "inprocess")
        record = replay_record(trace_path, replay_keys(trace_path)[0])
        report = replay(record, backend="batched", verify_trace=True)
        assert report.ok, report.mismatches
        assert report.backend == "batched"
        assert report.events_match is True

    def test_tampered_fault_fails_key_verification(self, tmp_path):
        _, trace_path = _traced_run(tmp_path)
        record = replay_record(trace_path, replay_keys(trace_path)[0])
        record.fault = dict(record.fault, iteration=record.fault["iteration"] + 1)
        with pytest.raises(ReplayError, match="does not match"):
            replay(record)

    def test_pinned_faults_replay_from_the_trace(self, tmp_path):
        """A directed battery of magnitude-pinned faults — one op site,
        one weight update — is as replayable as a sampled campaign."""
        group1 = FFDescriptor("global_control", group=1)
        faults = [
            HardwareFault(ff=group1, site=OpSite("1.conv1", "forward"),
                          iteration=3, device=1, seed=2,
                          pinned=PinnedMagnitude(1e6, elements=16)),
            HardwareFault(ff=group1, site=OpSite("4.weight", "weight_update"),
                          iteration=3, device=0, seed=0,
                          pinned=PinnedMagnitude(100.0, elements=10**6)),
        ]
        result = _campaign().run(faults=faults, store=tmp_path / "pinned.jsonl",
                                 trace=True)
        trace_path = result.engine_report.trace_path
        injected = [e.data for e in read_trace(trace_path).events
                    if e.type == FAULT_INJECTED]
        assert [e["model"] for e in injected] == ["pinned", "pinned"]
        assert [e["max_abs_faulty"] for e in injected] == [1e6, 100.0]
        keys = replay_keys(trace_path)
        assert len(keys) == 2
        cache = CampaignCache()
        for key in keys:
            report = replay(replay_record(trace_path, key), verify_trace=True,
                            cache=cache)
            assert report.ok, report.mismatches
            assert report.events_match is True


# ----------------------------------------------------------------------
# Corrupt traces: every ambiguity is a clean ReplayError
# ----------------------------------------------------------------------
class TestCorruptTraces:
    def test_unknown_key_lists_cleanly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _synthetic_trace(path)
        with pytest.raises(ReplayError, match="no events for experiment"):
            replay_record(path, "no-such-key")

    def test_duplicated_complete_attempts_are_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path, attempts=2)
        with pytest.raises(ReplayError, match="2 completed attempts"):
            replay_record(path, key)

    def test_never_finished_attempt_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path, finish=False)
        with pytest.raises(ReplayError, match="no completed attempt"):
            replay_record(path, key)

    def test_missing_started_marker_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path, unit="absent")
        with pytest.raises(ReplayError, match="no experiment_started"):
            replay_record(path, key)

    def test_pre_replay_trace_without_unit_payload_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path, unit="none")
        with pytest.raises(ReplayError, match="work-unit payload"):
            replay_record(path, key)

    def test_trace_without_campaign_config_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path, config=None)
        with pytest.raises(ReplayError, match="no campaign config"):
            replay_record(path, key)

    def test_truncated_header_is_a_replay_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(path.read_bytes()[:10])  # header cut mid-write
        with pytest.raises(ReplayError, match="unreadable trace"):
            replay_record(cut, key)
        with pytest.raises(ReplayError, match="unreadable trace"):
            replay_keys(cut)

    def test_truncated_tail_loses_completion_cleanly(self, tmp_path):
        """A shard cut before the finished marker replays as a clean
        'no completed attempt' error, not a wrong replay."""
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path)
        lines = path.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(b"".join(lines[:-1]) + lines[-1][:20])
        with pytest.raises(ReplayError, match="no completed attempt"):
            replay_record(cut, key)


# ----------------------------------------------------------------------
# Event canonicalization
# ----------------------------------------------------------------------
class TestCanonicalEvents:
    def test_context_and_scheduling_markers_are_stripped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        key = _synthetic_trace(path)
        events = [e for e in read_trace(path).events
                  if e.data.get("key") == key]
        lines = normalize_events(events)
        assert len(lines) == 1  # markers dropped, iteration_stats kept
        payload = json.loads(lines[0])
        assert payload["type"] == "iteration_stats"
        assert not set(payload["data"]) & {"key", "worker", "attempt"}

    def test_canonical_event_is_seq_and_ts_free(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _synthetic_trace(path)
        event = read_trace(path).events[1]
        line = canonical_event(event)
        assert set(json.loads(line)) == {"type", "iteration", "data"}
        assert '"seq"' not in line and '"t":' not in line

    def test_events_digest_is_order_sensitive(self):
        assert events_digest(["a", "b"]) != events_digest(["b", "a"])
        assert events_digest([]) == events_digest([])


# ----------------------------------------------------------------------
# The pinned corpus: coverage, determinism, and the CI gate
# ----------------------------------------------------------------------
class TestCorpus:
    def test_committed_corpus_covers_the_matrix(self):
        corpus = load_corpus(CORPUS_PATH)
        entries = corpus["entries"]
        assert len(entries) >= 12
        kinds = {e["fault"]["site"]["kind"] for e in entries}
        assert kinds == {"forward", "weight_grad", "input_grad", "comm"}
        backends = {e["backend"] for e in entries}
        assert backends == {"inprocess", "batched"}
        outcomes = {e["outcome"] for e in entries}
        assert len(outcomes) >= 3  # masked plus at least two failure classes
        for entry in entries:
            assert entry["key"] == experiment_key(entry["index"],
                                                  entry["fault"])
            assert entry["arena_sha256"] and entry["events_sha256"]

    def test_committed_corpus_serialization_is_stable(self, tmp_path):
        corpus = load_corpus(CORPUS_PATH)
        out = tmp_path / "copy.json"
        save_corpus(corpus, out)
        assert out.read_bytes() == CORPUS_PATH.read_bytes()

    def test_load_corpus_validates_documents(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ReplayError, match="corrupt corpus"):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ReplayError, match="not a replay corpus"):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "replay_corpus", "schema": 99,
                                    "entries": [{}]}))
        with pytest.raises(ReplayError, match="schema version"):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "replay_corpus", "schema": 1,
                                    "entries": []}))
        with pytest.raises(ReplayError, match="no entries"):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "replay_corpus", "schema": 1,
                                    "entries": [{"key": "k"}]}))
        with pytest.raises(ReplayError, match="missing fields"):
            load_corpus(path)
        with pytest.raises(ReplayError, match="cannot read"):
            load_corpus(tmp_path / "missing.json")

    def test_gate_fails_on_induced_outcome_flip(self):
        """The acceptance demo: flip one pinned outcome and the corpus
        gate must fail on exactly that entry."""
        corpus = load_corpus(CORPUS_PATH)
        entry = dict(next(e for e in corpus["entries"]
                          if e["backend"] == "inprocess"))
        entry["outcome"] = ("masked_improved"
                           if entry["outcome"] != "masked_improved"
                           else "immediate_inf_nan")
        tampered = {"kind": "replay_corpus", "schema": 1, "entries": [entry]}
        reports = run_corpus(tampered, verify_trace=True)
        assert len(reports) == 1
        assert not reports[0].ok
        assert not reports[0].outcome_match
        assert any("outcome flip" in m for m in reports[0].mismatches)
        # ... while arena and event stream still verify: only the pin
        # was wrong, not the replay.
        assert reports[0].arena_match is True
        assert reports[0].events_match is True

    def test_bless_re_pins_entries_in_place(self):
        corpus = load_corpus(CORPUS_PATH)
        entry = dict(next(e for e in corpus["entries"]
                          if e["backend"] == "inprocess"))
        original = dict(entry)
        entry["outcome"] = "not_a_real_outcome"
        entry["arena_sha256"] = None
        entry["events_sha256"] = None
        tampered = {"kind": "replay_corpus", "schema": 1, "entries": [entry]}
        run_corpus(tampered, bless=True)
        assert entry["outcome"] == original["outcome"]
        assert entry["arena_sha256"] == original["arena_sha256"]
        assert entry["events_sha256"] == original["events_sha256"]

    def test_entry_to_record_pins_digests_not_streams(self):
        corpus = load_corpus(CORPUS_PATH)
        record = entry_to_record(corpus["entries"][0])
        assert record.events == []
        assert record.events_sha256 is not None
        verify_key(record)

    @pytest.mark.slow
    def test_full_corpus_replays_clean(self):
        """The CI replay gate as a test: every pinned entry reproduces
        its outcome, arena digest, and event digest on its backend."""
        corpus = load_corpus(CORPUS_PATH)
        reports = run_corpus(corpus, verify_trace=True)
        failures = [r for r in reports if not r.ok]
        assert not failures, [r.mismatches for r in failures]
