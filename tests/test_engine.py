"""Tests for the parallel campaign-execution engine (repro.engine)."""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis import campaign_report_dict
from repro.core.faults import Campaign, HardwareFault, OpSite
from repro.engine import (
    CampaignEngine,
    EngineConfig,
    ResultStore,
    WorkUnit,
    read_records,
    render_text,
)
from repro.workloads import build_workload


# ----------------------------------------------------------------------
# Toy runner: behaviour is driven entirely by the unit payload, so the
# scheduler's robustness policy can be exercised without training.
# ----------------------------------------------------------------------
def _toy_factory():
    def run_one(payload):
        if payload.get("marker"):
            with open(payload["marker"], "a") as fh:
                fh.write(payload["key"] + "\n")
        if payload.get("sleep"):
            time.sleep(payload["sleep"])
        if payload.get("crash"):
            os._exit(3)
        if payload.get("fail"):
            raise RuntimeError("deliberate failure")
        if payload.get("flaky"):
            flag = Path(payload["flaky"])
            if not flag.exists():
                flag.write_text("attempted")
                raise RuntimeError("flaky first attempt")
        return {"value": payload["x"] * 2, "outcome": "ok"}

    return lambda payloads: [run_one(payload) for payload in payloads]


def _units(payloads):
    return [WorkUnit(key=f"key{i}", payload={"key": f"key{i}", "x": i, **p})
            for i, p in enumerate(payloads)]


class TestToyEngine:
    def test_serial_matches_parallel(self):
        units = _units([{} for _ in range(6)])
        serial = CampaignEngine(_toy_factory, EngineConfig(parallel=1)).run(units)
        parallel = CampaignEngine(_toy_factory, EngineConfig(parallel=2)).run(units)
        assert serial.results == parallel.results
        assert parallel.executed == 6
        assert parallel.snapshot.done == 6
        assert parallel.snapshot.breakdown == {"ok": 6}

    def test_parallel_drain_does_not_idle_workers(self):
        # A drain waits poll_interval (50 ms) for its first message only.
        # Waiting again after every DONE left the other worker idle for
        # most of the run: 200 trivial units took about 5 s.
        units = _units([{} for _ in range(200)])
        serial = CampaignEngine(_toy_factory, EngineConfig(parallel=1)).run(units)
        start = time.monotonic()
        parallel = CampaignEngine(_toy_factory, EngineConfig(parallel=2)).run(units)
        elapsed = time.monotonic() - start
        assert parallel.results == serial.results
        assert parallel.executed == 200
        assert elapsed < 2.0, f"200 trivial units took {elapsed:.2f}s"

    def test_retry_recovers_flaky_unit(self, tmp_path):
        units = _units([{}, {"flaky": str(tmp_path / "flag")}])
        report = CampaignEngine(
            _toy_factory, EngineConfig(parallel=1, retry_backoff=0.01),
        ).run(units)
        assert report.retries == 1
        assert report.quarantined == {}
        assert sorted(report.results) == ["key0", "key1"]

    def test_quarantine_after_retries(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl", kind="toy")
        units = _units([{}, {"fail": True}, {}])
        report = CampaignEngine(
            _toy_factory,
            EngineConfig(parallel=1, max_retries=1, retry_backoff=0.01),
            store=store,
        ).run(units)
        store.close()
        assert sorted(report.results) == ["key0", "key2"]
        assert list(report.quarantined) == ["key1"]
        assert "deliberate failure" in report.quarantined["key1"]
        assert report.retries == 1  # one retry, then quarantine
        # The quarantine is persisted, so a resume skips it entirely.
        resumed_store = ResultStore(tmp_path / "s.jsonl", resume=True)
        resumed = CampaignEngine(
            _toy_factory, EngineConfig(parallel=1), store=resumed_store,
        ).run(units)
        resumed_store.close()
        assert resumed.executed == 0
        assert resumed.skipped == 3
        assert list(resumed.quarantined) == ["key1"]

    def test_parallel_timeout_quarantines_hung_unit(self):
        units = _units([{}, {"sleep": 60}, {}])
        report = CampaignEngine(
            _toy_factory,
            EngineConfig(parallel=2, timeout=1.0, max_retries=0,
                         poll_interval=0.02),
        ).run(units)
        assert sorted(report.results) == ["key0", "key2"]
        assert "timeout" in report.quarantined["key1"]

    def test_parallel_worker_crash_quarantined(self):
        # The long sleeps keep both survivors leased, so the retry runs
        # on (and kills) a worker other than the first casualty.  The
        # short one lets the doomed worker's queue feeder thread finish
        # its last send first: dying inside it would leave the result
        # queue's shared write lock held and wedge every other worker.
        units = _units([{"sleep": 0.3}, {"sleep": 0.05, "crash": True},
                        {"sleep": 0.3}])
        snapshots = []
        report = CampaignEngine(
            _toy_factory,
            EngineConfig(parallel=2, max_retries=1, retry_backoff=0.01,
                         poll_interval=0.02),
            on_progress=snapshots.append,
        ).run(units)
        assert sorted(report.results) == ["key0", "key2"]
        assert "crashed" in report.quarantined["key1"]
        # Two attempts, two dead workers, two respawns — and the gauge
        # is the pool, not its history: a respawn retires the dead id
        # (at the parent the final snapshot held ids 0, 1, 2, read
        # `workers.alive 3` and `workers 0/3 busy` for a pool of two).
        snapshots.append(report.snapshot)
        assert report.snapshot.restarts == 2
        for snapshot in snapshots:
            assert len(snapshot.workers) <= 2
            assert snapshot.sample().gauges["workers.alive"] <= 2.0
        final = report.snapshot.sample().gauges
        assert final["workers.restarts"] == 2.0
        alive = len(report.snapshot.workers)
        assert f"workers 0/{alive} busy, 2 restarts" \
            in report.snapshot.status_line()

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_one_store_fsync_per_lease(self, parallel, tmp_path, fsyncs):
        """A lease's results reach the store together: one ``fsync`` per
        lease after the header's, and every record is there."""
        units = _units([{} for _ in range(7)])
        with ResultStore(tmp_path / "s.jsonl", kind="toy") as store:
            report = CampaignEngine(
                _toy_factory,
                EngineConfig(parallel=parallel, block_size=3,
                             poll_interval=0.02),
                store=store).run(units)
        assert len(fsyncs) == 1 + 3
        assert [r["key"] for r in read_records(tmp_path / "s.jsonl")[1:]] \
            == [u.key for u in units] == sorted(report.results)

    def test_interrupt_then_resume_executes_each_unit_once(self, tmp_path):
        marker = tmp_path / "executed.log"
        units = _units([{"marker": str(marker)} for _ in range(6)])

        def interrupt_after_three(snapshot):
            if snapshot.done >= 3:
                raise KeyboardInterrupt

        store = ResultStore(tmp_path / "s.jsonl", kind="toy")
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(_toy_factory, EngineConfig(parallel=1),
                           store=store,
                           on_progress=interrupt_after_three).run(units)
        store.close()
        assert len(ResultStore(tmp_path / "s.jsonl", resume=True).completed) == 3

        store = ResultStore(tmp_path / "s.jsonl", resume=True)
        report = CampaignEngine(_toy_factory, EngineConfig(parallel=1),
                                store=store).run(units)
        store.close()
        assert report.executed == 3
        assert report.skipped == 3
        assert sorted(report.results) == [u.key for u in units]
        executed = marker.read_text().split()
        assert sorted(executed) == sorted(set(executed)) == \
            [u.key for u in units]


# ----------------------------------------------------------------------
# Integration with real campaigns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_campaign():
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=6,
                        horizon=10, inject_window=4, test_every=5)
    campaign.prepare()
    return campaign


@pytest.fixture(scope="module")
def serial_result(engine_campaign):
    return engine_campaign.run(5, seed=11)


def _store_report(path) -> dict:
    """The training summary over a store file's payloads."""
    return campaign_report_dict([r["payload"] for r in read_records(path)[1:]
                                 if r["record"] == "experiment"])


def _sweep(groups, iterations):
    """A grid of fully specified control faults (what ``run_sweep`` used
    to build from its axes)."""
    return [HardwareFault(FFDescriptor("global_control", group=group,
                                       has_feedback=True),
                          OpSite("1.conv1", "weight_grad"), iteration,
                          device=0, seed=0)
            for group in groups for iteration in iterations]


class TestCampaignThroughEngine:
    def test_parallel_breakdown_matches_serial(self, engine_campaign,
                                               serial_result, tmp_path):
        parallel = engine_campaign.run(
            5, seed=11, parallel=2, store=tmp_path / "s.jsonl")
        serial_report = campaign_report_dict(serial_result.payloads)
        assert campaign_report_dict(parallel.payloads) == serial_report
        assert _store_report(tmp_path / "s.jsonl") == serial_report
        assert parallel.engine_report.executed == 5
        keys = [r["key"] for r in read_records(tmp_path / "s.jsonl")[1:]]
        assert len(keys) == len(set(keys)) == 5

    def test_kill_and_resume_no_duplicates(self, engine_campaign,
                                           serial_result, tmp_path):
        """Kill the run mid-campaign, restart with --resume semantics:
        no experiment key is executed twice and the aggregate breakdown
        matches a straight serial run with the same seeds."""
        path = tmp_path / "s.jsonl"

        def killer(snapshot):
            if snapshot.done >= 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            engine_campaign.run(5, seed=11, store=path, on_progress=killer)
        partial = [r["key"] for r in read_records(path)[1:]]
        assert len(partial) == 2

        resumed = engine_campaign.run(5, seed=11, store=path, resume=True)
        assert resumed.engine_report.skipped == 2
        assert resumed.engine_report.executed == 3
        keys = [r["key"] for r in read_records(path)[1:]]
        assert len(keys) == len(set(keys)) == 5
        serial_report = campaign_report_dict(serial_result.payloads)
        assert campaign_report_dict(resumed.payloads) == serial_report
        assert _store_report(path) == serial_report

    def test_store_merge_matches_serial(self, engine_campaign,
                                        serial_result, tmp_path):
        """Two half-campaign shards merge into the full campaign."""
        from repro.engine import merge_stores

        faults = engine_campaign.sample_faults(5, seed=11)
        for name, chunk in (("a", faults[:2]), ("b", faults[2:])):
            engine_campaign.run(faults=chunk, store=tmp_path / f"{name}.jsonl")
        merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                     tmp_path / "m.jsonl").close()
        assert _store_report(tmp_path / "m.jsonl") == \
            campaign_report_dict(serial_result.payloads)

    def test_sweep_parallel_matches_serial(self, engine_campaign):
        """A directed battery — a fixed fault list in place of the
        sample — gives the same results at any worker count."""
        faults = _sweep(groups=[1, 2], iterations=[7, 9])
        serial = engine_campaign.run(faults=faults)
        parallel = engine_campaign.run(faults=faults, parallel=2)
        assert [r.fault for r in serial.results] == faults
        assert [(r.fault, r.outcome, r.arena_sha256)
                for r in parallel.results] == \
            [(r.fault, r.outcome, r.arena_sha256) for r in serial.results]

    def test_fixed_fault_list_store_resumes(self, engine_campaign, tmp_path):
        """A store written from a fault list resumes like a sampled one:
        completed keys are not run again, and the list's length is the
        campaign's size."""
        faults = _sweep(groups=[1, 2], iterations=[7, 9])
        path = tmp_path / "s.jsonl"
        engine_campaign.run(faults=faults[:3], store=path)
        resumed = engine_campaign.run(faults=faults, store=path, resume=True)
        assert resumed.engine_report.skipped == 3
        assert resumed.engine_report.executed == 1
        assert [r.fault for r in resumed.results] == faults
        header, *records = read_records(path)
        assert header["meta"]["num_experiments"] == 3
        assert header["meta"]["seed"] is None
        assert len({r["key"] for r in records}) == len(records) == 4

    def test_batched_sweep_workers_are_daemonic(self):
        """Engine workers die with a killed parent on every backend (a
        ``batched`` sweep used to run them non-daemonic)."""
        import multiprocessing

        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=4,
                            horizon=6, backend="batched")
        daemonic = []
        campaign.run(faults=_sweep(groups=[1, 2], iterations=[4]),
                     parallel=2,
                     on_progress=lambda _snapshot: daemonic.extend(
                         p.daemon for p in multiprocessing.active_children()))
        assert daemonic and all(daemonic)

    def test_keep_records_rejects_engine_options(self):
        """The engine does not serialize convergence records, so ``run``
        is not how a ``keep_records`` campaign runs — with or without
        engine options."""
        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=4,
                            horizon=6, keep_records=True)
        with pytest.raises(ValueError, match="keep_records"):
            campaign.run(1, parallel=2)
        with pytest.raises(ValueError, match="keep_records"):
            campaign.run(1)


def _slow_lease_factory():
    def runner(payloads):
        time.sleep(0.15 * len(payloads))
        return [{"value": p["x"], "outcome": "ok"} for p in payloads]
    return runner


class TestStallTelemetry:
    def _snapshot(self, stalled):
        from repro.engine import CampaignState, WorkerState

        return CampaignState(
            total=6, done=3, breakdown={"ok": 3}, throughput=0.3, eta=10.0,
            workers=[WorkerState(0, finished=2),
                     WorkerState(1, finished=1, busy_key="key7",
                                 stalled=stalled)],
            skipped=0, retries=0, restarts=0, elapsed=10.0)

    def test_stalled_workers_flagged_and_rendered(self):
        snapshot = self._snapshot(stalled=True)
        assert snapshot.stalled_workers == [1]
        assert snapshot.sample().gauges["workers.stalled"] == 1.0
        assert "STALLED: w1" in snapshot.status_line()
        # The live engine's observation goes through the monitor
        # dashboard as it is.
        dashboard = render_text(snapshot)
        assert "3/6 done" in dashboard and "STALLED key=key7" in dashboard

    def test_fast_workers_not_flagged(self):
        snapshot = self._snapshot(stalled=False)
        assert snapshot.stalled_workers == []
        assert "STALLED" not in snapshot.status_line()
        assert "STALLED" not in render_text(snapshot)

    def test_no_timeout_disables_stall_flagging(self):
        from repro.engine import ProgressTracker

        now = [0.0]
        tracker = ProgressTracker(total=2, clock=lambda: now[0])
        tracker.task_started(0, "key0", deadline=None)
        now[0] = 1e9
        assert tracker.snapshot().stalled_workers == []

    def test_tracker_snapshot_carries_stall_flag(self):
        """The flag is the lease's own deadline (here 4 T for a lease of
        four), not the bare per-experiment timeout T."""
        from repro.engine import ProgressTracker

        now, T = [100.0], 0.25
        tracker = ProgressTracker(total=8, clock=lambda: now[0])
        for key in ("key0", "key1", "key2", "key3"):
            tracker.task_started(0, key, deadline=100.0 + 4 * T)
        now[0] = 100.0 + 3 * T
        assert tracker.snapshot().stalled_workers == []
        now[0] = 100.0 + 5 * T
        snapshot = tracker.snapshot()
        assert snapshot.workers[0].stalled
        assert snapshot.stalled_workers == [0]
        tracker.task_done(0, "ok")
        assert tracker.snapshot().stalled_workers == []

    def test_block_lease_inside_its_deadline_never_reads_stalled(self):
        """Leases of four at 2.4 T each, deadline 4 T: a healthy
        `--experiment-batch 4` campaign.  At the parent every sample from
        T on read `workers.stalled 2` (and `/healthz` answered 503)."""
        engine = CampaignEngine(
            _slow_lease_factory,
            EngineConfig(parallel=2, timeout=0.25, block_size=4,
                         poll_interval=0.02))
        stalled, stop = [], threading.Event()

        def sampler():
            while not stop.wait(0.02):
                progress = engine.progress()
                if progress is not None:
                    stalled.append(
                        progress.sample().gauges["workers.stalled"])

        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            report = engine.run(_units([{} for _ in range(8)]))
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert (report.executed, report.retries, report.quarantined) \
            == (8, 0, {})
        assert len(stalled) >= 10, "the sampler never saw the run"
        assert max(stalled) == 0.0
