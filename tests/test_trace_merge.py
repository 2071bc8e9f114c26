"""Tests for the campaign flight recorder's shard merge (repro.observe.merge)."""

import itertools
import json
import os
from pathlib import Path

import pytest

from repro import jsonl
from repro.engine import CampaignEngine, EngineConfig, ResultStore, WorkUnit
from repro.observe import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    ITERATION_STATS,
    Tracer,
    campaign_trace_path,
    merge_campaign_shards,
    merge_traces,
    read_trace,
    shard_path,
)
from repro.engine.worker import UnitCapture


def _write_shard(path, worker_id, units, finish=True):
    """Stream a shard: each unit is (key, iterations[, outcome])."""
    with Tracer(stream=path, meta={"worker": worker_id}) as tracer:
        capture = UnitCapture(tracer, worker_id)
        for unit in units:
            key, iterations = unit[0], unit[1]
            outcome = unit[2] if len(unit) > 2 else "ok"
            view = capture.start(key)
            for it in iterations:
                view.emit(ITERATION_STATS, iteration=it, loss=0.1 * it,
                          history_magnitude=1.0, mvar_magnitude=0.5)
            if finish:
                capture.done(view, {"outcome": outcome})
    return path


class TestMergeOrdering:
    def test_merge_orders_by_shard_then_first_seen(self, tmp_path):
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0, 1]),
                                                  ("key2", [0, 1])])
        _write_shard(shard_path(tmp_path, 1), 1, [("key1", [0, 1]),
                                                  ("key3", [0, 1])])
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([shard_path(tmp_path, 0),
                               shard_path(tmp_path, 1)], dest)
        assert result.experiments == 4
        assert result.unkeyed_dropped == 0
        assert result.incomplete == []
        trace = read_trace(dest)
        keys = []
        for event in trace.events:
            if event.data["key"] not in keys:
                keys.append(event.data["key"])
        assert keys == ["key0", "key2", "key1", "key3"]
        # The merged trace is re-sequenced and each key's events stay
        # contiguous and internally ordered.
        assert [e.seq for e in trace.events] == list(range(len(trace.events)))
        for key in keys:
            events = [e for e in trace.events if e.data["key"] == key]
            assert events[0].type == EXPERIMENT_STARTED
            assert events[-1].type == EXPERIMENT_FINISHED
            iters = [e.iteration for e in events
                     if e.type == ITERATION_STATS]
            assert iters == sorted(iters)

    def test_merged_trace_is_schema_valid(self, tmp_path):
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0])])
        dest = tmp_path / "merged.jsonl"
        merge_traces([shard_path(tmp_path, 0)], dest)
        trace = read_trace(dest)  # raises on schema violation
        assert not trace.truncated
        assert trace.meta["experiments"] == 1


class TestDedup:
    def test_restarted_worker_dedups_to_completed_attempt(self, tmp_path):
        # Worker 0 was killed mid-experiment: started key0, never finished.
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0, 1])],
                     finish=False)
        # The respawned worker (new id) re-ran key0 to completion.
        _write_shard(shard_path(tmp_path, 1), 1, [("key0", [0, 1, 2])])
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([shard_path(tmp_path, 0),
                               shard_path(tmp_path, 1)], dest)
        assert result.experiments == 1
        assert result.incomplete == []
        trace = read_trace(dest)
        started = [e for e in trace.events if e.type == EXPERIMENT_STARTED]
        assert len(started) == 1  # exactly one surviving attempt
        assert started[0].data["worker"] == 1
        finished = [e for e in trace.events if e.type == EXPERIMENT_FINISHED]
        assert len(finished) == 1
        assert finished[0].data["status"] == "done"

    def test_retry_within_one_shard_keeps_first_complete_attempt(self, tmp_path):
        path = shard_path(tmp_path, 0)
        with Tracer(stream=path) as tracer:
            capture = UnitCapture(tracer, 0)
            view = capture.start("key0")  # attempt 0: failed
            view.emit(ITERATION_STATS, iteration=0, loss=1.0)
            capture.error(view, "RuntimeError: flaky")
            view = capture.start("key0")  # attempt 1: succeeded
            view.emit(ITERATION_STATS, iteration=0, loss=0.5)
            capture.done(view, {"outcome": "ok"})
        dest = tmp_path / "merged.jsonl"
        merge_traces([path], dest)
        trace = read_trace(dest)
        finished = [e for e in trace.events if e.type == EXPERIMENT_FINISHED]
        assert len(finished) == 1
        assert finished[0].data["status"] == "done"
        assert finished[0].data["attempt"] == 1

    def test_never_finished_unit_survives_as_incomplete(self, tmp_path):
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0, 1])],
                     finish=False)
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([shard_path(tmp_path, 0)], dest)
        assert result.incomplete == ["key0"]
        trace = read_trace(dest)
        assert [e.type for e in trace.events] == \
            [EXPERIMENT_STARTED, ITERATION_STATS, ITERATION_STATS]


class TestCrashArtifacts:
    def test_truncated_final_line_is_recovered_around(self, tmp_path):
        path = _write_shard(shard_path(tmp_path, 0), 0,
                            [("key0", [0, 1]), ("key1", [0, 1])])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"event","type":"iteration_st')  # killed mid-write
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([path], dest)
        assert result.experiments == 2
        trace = read_trace(dest)
        assert not trace.truncated  # the merged trace itself is clean
        assert len(trace.events) == result.events

    def test_shard_with_cut_header_is_skipped(self, tmp_path):
        good = _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0])])
        bad = shard_path(tmp_path, 1)
        bad.write_text('{"record":"hea', encoding="utf-8")
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([good, bad], dest)
        assert result.skipped_sources == [bad]
        assert result.experiments == 1

    def test_unkeyed_events_are_dropped_and_counted(self, tmp_path):
        path = shard_path(tmp_path, 0)
        with Tracer(stream=path) as tracer:
            tracer.emit(ITERATION_STATS, iteration=0, loss=1.0)  # no stamp
            capture = UnitCapture(tracer, 0)
            view = capture.start("key0")
            view.emit(ITERATION_STATS, iteration=0, loss=0.5)
            capture.done(view, {"outcome": "ok"})
        dest = tmp_path / "merged.jsonl"
        result = merge_traces([path], dest)
        assert result.unkeyed_dropped == 1
        assert result.experiments == 1


class TestCampaignShards:
    def test_merge_folds_shards_and_removes_them(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        store_path.write_text("", encoding="utf-8")
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0])])
        _write_shard(shard_path(tmp_path, 1), 1, [("key1", [0])])
        result = merge_campaign_shards(store_path)
        assert result.dest == campaign_trace_path(store_path)
        assert result.experiments == 2
        assert not shard_path(tmp_path, 0).exists()
        assert not shard_path(tmp_path, 1).exists()

    def test_merge_is_idempotent_across_resume_sessions(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        _write_shard(shard_path(tmp_path, 0), 0, [("key0", [0, 1])])
        merge_campaign_shards(store_path)
        first = campaign_trace_path(store_path).read_text(encoding="utf-8")
        # A resume session adds a new shard; the existing trace is re-fed
        # as the first source, so key0's story is preserved verbatim.
        _write_shard(shard_path(tmp_path, 0), 0, [("key1", [0])])
        merge_campaign_shards(store_path)
        second = campaign_trace_path(store_path).read_text(encoding="utf-8")
        first_events = [json.loads(line) for line in
                        first.splitlines()[1:]]
        second_events = [json.loads(line) for line in
                         second.splitlines()[1:]]
        assert second_events[:len(first_events)] == first_events
        assert {e["data"]["key"] for e in second_events} == {"key0", "key1"}
        # Re-merging with no new shards is a no-op on the event stream
        # (only the header's source accounting may differ).
        merge_campaign_shards(store_path)
        third = campaign_trace_path(store_path).read_text(encoding="utf-8")
        assert third.splitlines()[1:] == second.splitlines()[1:]

    def test_nothing_to_merge_returns_none(self, tmp_path):
        assert merge_campaign_shards(tmp_path / "results.jsonl") is None


# ----------------------------------------------------------------------
# Kill anywhere: a merge killed at any point re-runs to the same trace.
# ----------------------------------------------------------------------
#: Exit status of a child killed at its kill point.
KILLED = 17


def _campaign_shards(directory) -> Path:
    """A store and its shards: worker 0 finished key0 and was killed in
    key2, which its replacement, worker 1, re-ran before key1.  Merged:
    3 experiments, 12 events."""
    directory.mkdir()
    store_path = directory / "results.jsonl"
    ResultStore(store_path, kind="toy", meta={"workload": "w"}).close()
    _write_shard(shard_path(directory, 0), 0, [("key0", [0, 1])])
    with open(shard_path(directory, 0), "a", encoding="utf-8") as fh:
        fh.write('{"record":"event","type":"experiment_st')
    _write_shard(shard_path(directory, 1), 1, [("key2", [0, 1, 2]),
                                               ("key1", [0])])
    return store_path


def _merge_killed(store_path, target, name, call: int) -> int:
    """Run the shard merge in a forked child that ``os._exit``s right
    after its ``call``-th call of ``target.name``; the child's exit
    status (:data:`KILLED` when it died there)."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            real, calls = getattr(target, name), itertools.count(1)

            def dying(*args, **kwargs):
                result = real(*args, **kwargs)
                if next(calls) == call:
                    os._exit(KILLED)
                return result

            setattr(target, name, dying)
            merge_campaign_shards(store_path)
            os._exit(1)  # the kill point was never reached
        except BaseException:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _merged(store_path) -> tuple[dict, list[tuple]]:
    """The merged trace, ``seq``, ``t`` and the source count masked."""
    trace = read_trace(campaign_trace_path(store_path))
    meta = {k: v for k, v in trace.meta.items() if k != "merged_sources"}
    return meta, [(e.type, e.iteration, e.data) for e in trace.events]


class TestKillAnywhere:
    @pytest.mark.parametrize("target,name,call", [
        # Mid-write of the .tmp file: the header, then 1 or 7 events out.
        (jsonl.LogWriter, "append", 2),
        (jsonl.LogWriter, "append", 8),
        (os, "replace", 1),
        (Path, "unlink", 1),  # the first consumed shard
    ], ids=["tmp-1-event", "tmp-7-events", "after-replace",
            "after-first-unlink"])
    def test_rerun_after_a_kill_yields_the_uninterrupted_trace(
            self, tmp_path, target, name, call):
        whole = _campaign_shards(tmp_path / "whole")
        merge_campaign_shards(whole)
        expected = _merged(whole)
        assert len(expected[1]) == 12

        killed = _campaign_shards(tmp_path / "killed")
        assert _merge_killed(killed, target, name, call) == KILLED
        merge_campaign_shards(killed)
        assert _merged(killed) == expected
        assert sorted(p.name for p in killed.parent.iterdir()) == \
            ["results.jsonl", "results.trace.jsonl"]


# ----------------------------------------------------------------------
# Engine integration: the toy runner, traced end to end.
# ----------------------------------------------------------------------
def _toy_factory():
    def run_one(payload):
        if payload.get("fail"):
            raise RuntimeError("deliberate failure")
        return {"value": payload["x"] * 2, "outcome": "ok"}

    return lambda payloads, sinks: [run_one(payload) for payload in payloads]


def _units(n, **extra):
    return [WorkUnit(key=f"key{i}", payload={"key": f"key{i}", "x": i, **extra})
            for i in range(n)]


class TestEngineTracing:
    def test_trace_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            CampaignEngine(_toy_factory,
                           EngineConfig(parallel=1, trace=True)).run(_units(1))

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_traced_run_produces_merged_campaign_trace(self, tmp_path, parallel):
        store = ResultStore(tmp_path / "s.jsonl", kind="toy")
        report = CampaignEngine(
            _toy_factory, EngineConfig(parallel=parallel, trace=True),
            store=store).run(_units(4))
        store.close()
        assert report.trace_path == campaign_trace_path(tmp_path / "s.jsonl")
        trace = read_trace(report.trace_path)
        counts = trace.type_counts()
        assert counts[EXPERIMENT_STARTED] == 4
        assert counts[EXPERIMENT_FINISHED] == 4
        keys = {e.data["key"] for e in trace.events}
        assert keys == {"key0", "key1", "key2", "key3"}
        # Shards were consumed by the merge.
        assert not list(tmp_path.glob("trace-worker*.jsonl"))

    def test_quarantined_unit_keeps_error_story(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl", kind="toy")
        report = CampaignEngine(
            _toy_factory,
            EngineConfig(parallel=1, trace=True, max_retries=0),
            store=store).run(_units(2) + [
                WorkUnit(key="bad", payload={"key": "bad", "x": 0,
                                             "fail": True})])
        store.close()
        assert list(report.quarantined) == ["bad"]
        trace = read_trace(report.trace_path)
        finished = {e.data["key"]: e.data for e in trace.events
                    if e.type == EXPERIMENT_FINISHED}
        assert finished["bad"]["status"] == "error"
        assert "deliberate failure" in finished["bad"]["error"]
        assert finished["key0"]["status"] == "done"
