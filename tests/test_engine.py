"""Tests for the parallel campaign-execution engine (repro.engine)."""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis import campaign_report_dict
from repro.core.faults import Campaign, HardwareFault, OpSite
from repro.core.faults.campaign import _submit
from repro.engine import (
    EXPERIMENT,
    LEASE,
    SESSION,
    CampaignEngine,
    EngineConfig,
    ResultStore,
    WorkUnit,
    collect,
    read_records,
    render_text,
    scheduler,
)
from repro.observe import ITERATION_STATS, read_trace
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
        if payload.get("after"):
            _wait_for(Path(payload["after"]).exists)
        if payload.get("die_sending"):
            return _die_sending(Path(payload["die_sending"]))
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

    return lambda payloads, sinks: [run_one(payload) for payload in payloads]


def _die_sending(directory: Path) -> dict:
    """Publish this worker's pid, wait until the parent has stopped
    reading (it writes ``go``), then die by SIGKILL while the result —
    far larger than a pipe buffer — is being sent."""
    (directory / "pid.tmp").write_text(str(os.getpid()))
    os.replace(directory / "pid.tmp", directory / "doomed.pid")
    _wait_for((directory / "go").exists)
    threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return {"blob": "x" * (8 << 20), "outcome": "ok"}


def _wait_for(condition, limit: float = 30.0) -> None:
    deadline = time.monotonic() + limit
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def _units(payloads):
    return [WorkUnit(key=f"key{i}", payload={"key": f"key{i}", "x": i, **p})
            for i, p in enumerate(payloads)]


def _experiments(path) -> list[dict]:
    """A store file's experiment records, in file order (the engine's
    session, lease, retry and restart records sit between them)."""
    return [r for r in read_records(path)[1:] if r["record"] == EXPERIMENT]


class TestToyEngine:
    def test_serial_matches_parallel(self, tmp_path):
        units = _units([{} for _ in range(6)])
        reports, states = [], []
        for parallel in (1, 2):
            path = tmp_path / f"p{parallel}.jsonl"
            with ResultStore(path, kind="toy") as store:
                reports.append(CampaignEngine(
                    _toy_factory, EngineConfig(parallel=parallel),
                    store=store).run(units))
            states.append(collect(path))
        serial, parallel = reports
        assert serial.results == parallel.results
        assert parallel.executed == 6
        for state in states:
            assert (state.total, state.done, state.skipped) == (6, 6, 0)
            assert state.breakdown == {"ok": 6}
            assert sum(w.finished for w in state.workers) == 6

    def test_parallel_drain_does_not_idle_workers(self):
        # The parent must hand a worker its next lease as soon as the
        # worker reports: waiting a poll interval after every DONE left
        # the other worker idle for most of the run (200 trivial units
        # took about 5 s).
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
            EngineConfig(parallel=2, timeout=1.0, max_retries=0),
        ).run(units)
        assert sorted(report.results) == ["key0", "key2"]
        assert "timeout" in report.quarantined["key1"]

    def test_parallel_worker_crash_quarantined(self, tmp_path):
        # The long sleeps keep both survivors leased, so the retry runs
        # on (and kills) a worker other than the first casualty.
        units = _units([{"sleep": 0.3}, {"crash": True}, {"sleep": 0.3}])
        path = tmp_path / "s.jsonl"
        states = []
        with ResultStore(path, kind="toy") as store:
            report = CampaignEngine(
                _toy_factory,
                EngineConfig(parallel=2, max_retries=1, retry_backoff=0.01),
                store=store,
                on_progress=lambda _report: states.append(collect(path)),
            ).run(units)
        assert sorted(report.results) == ["key0", "key2"]
        assert "crashed" in report.quarantined["key1"]
        # Two attempts, two dead workers, two respawns — and the gauge
        # is the pool, not its history: a respawn retires the dead id
        # (a pool counted from every id ever spawned read
        # `workers.alive 3` and `workers 0/3 busy` for a pool of two).
        final = collect(path)
        states.append(final)
        assert (final.retries, final.restarts) == (1, 2)
        for state in states:
            assert len(state.workers) <= 2
            assert state.sample().gauges["workers.alive"] <= 2.0
        assert final.sample().gauges["workers.restarts"] == 2.0
        alive = len(final.workers)
        assert f"workers    0/{alive} busy, 2 restarts" in render_text(final)

    def test_worker_killed_mid_send_does_not_wedge_the_run(self, tmp_path):
        """A worker SIGKILLed while sending a multi-megabyte result to a
        parent that is not reading costs its own unit only.  With one
        result queue shared by every worker the kill left the queue's
        write lock held, and the run never finished."""
        pid_file, go = tmp_path / "doomed.pid", tmp_path / "go"
        # Every other unit waits until the doomed one runs, so the
        # parent's stall always catches it.
        units = _units([{"die_sending": str(tmp_path)}]
                       + [{"after": str(pid_file)}] * 4)

        def stall(_snapshot):
            """On the first completion: stop reading until the doomed
            worker, released by ``go``, has died mid-send."""
            if go.exists():
                return
            pid = int(pid_file.read_text())
            go.write_text("go")
            _wait_for(lambda: os.waitid(
                os.P_PID, pid,
                os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None)

        outcome = {}

        def run():
            try:
                outcome["report"] = CampaignEngine(
                    _toy_factory, EngineConfig(parallel=2, max_retries=0),
                    on_progress=stall).run(units)
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the engine wedged after the kill"
        assert "error" not in outcome, outcome.get("error")
        report = outcome["report"]
        assert list(report.quarantined) == ["key0"]
        assert "crashed (exit code -9)" in report.quarantined["key0"]
        assert sorted(report.results) == ["key1", "key2", "key3", "key4"]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_fully_resumed_run_builds_no_runner(self, parallel, tmp_path):
        """Resuming a store that holds every unit runs nothing: no
        runner is built (for a campaign that is a retrained warm-up and
        reference run) and no worker is forked."""
        calls = tmp_path / "factory_calls"

        def counting_factory():
            with open(calls, "a") as fh:
                fh.write("call\n")
            return _toy_factory()

        units = _units([{} for _ in range(3)])
        with ResultStore(tmp_path / "s.jsonl", kind="toy") as store:
            CampaignEngine(_toy_factory, store=store).run(units)
        with ResultStore(tmp_path / "s.jsonl", resume=True) as store:
            report = CampaignEngine(
                counting_factory, EngineConfig(parallel=parallel),
                store=store).run(units)
        assert (report.executed, report.skipped) == (0, 3)
        assert not calls.exists()
        state = collect(tmp_path / "s.jsonl")
        assert (state.skipped, state.workers) == (3, [])

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_one_store_fsync_per_lease(self, parallel, tmp_path, fsyncs):
        """A lease's results reach the store together: one ``fsync`` per
        lease after the header's, and the records are whole leases, each
        contiguous and in unit order."""
        units = _units([{} for _ in range(7)])
        with ResultStore(tmp_path / "s.jsonl", kind="toy") as store:
            report = CampaignEngine(
                _toy_factory,
                EngineConfig(parallel=parallel, block_size=3),
                store=store).run(units)
        assert len(fsyncs) == 1 + 3
        keys = [r["key"] for r in _experiments(tmp_path / "s.jsonl")]
        assert sorted(keys) == [u.key for u in units] == sorted(report.results)
        leases = [[u.key for u in units[i:i + 3]] for i in range(0, 7, 3)]
        if parallel == 1:
            assert keys == sum(leases, [])
            return
        # Two workers finish their leases in either order, so cut the
        # records where each lease must start.
        runs, i = [], 0
        while i < len(keys):
            size = next((len(lease) for lease in leases
                         if lease[0] == keys[i]), 1)
            runs.append(keys[i:i + size])
            i += size
        assert sorted(runs) == sorted(leases)

    def test_interrupt_then_resume_executes_each_unit_once(self, tmp_path):
        marker = tmp_path / "executed.log"
        units = _units([{"marker": str(marker)} for _ in range(6)])

        def interrupt_after_three(report):
            if report.executed >= 3:
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
# The runner contract: runner(payloads, sinks), one sink per unit
# ----------------------------------------------------------------------
def _emitting_factory():
    """Each unit emits one event through the sink it was handed; the
    event names its payload's key so attribution can be checked."""
    def runner(payloads, sinks):
        for payload, sink in zip(payloads, sinks):
            sink.emit(ITERATION_STATS, iteration=payload["x"],
                      payload_key=payload["key"])
        return [{"value": p["x"], "outcome": "ok"} for p in payloads]
    return runner


@pytest.mark.parametrize("parallel", [1, 2])
def test_each_unit_emits_through_its_own_sink(parallel, tmp_path,
                                              monkeypatch):
    """A lease of three units hands each its own stamped view: every
    event reaches the merged trace under the key of the unit that
    emitted it, and the merge drops nothing for want of a key."""
    merges = []
    real = scheduler.merge_campaign_shards
    monkeypatch.setattr(scheduler, "merge_campaign_shards",
                        lambda path: merges.append(real(path)) or merges[-1])
    units = _units([{} for _ in range(7)])
    with ResultStore(tmp_path / "s.jsonl", kind="toy") as store:
        report = CampaignEngine(
            _emitting_factory,
            EngineConfig(parallel=parallel, block_size=3, trace=True),
            store=store).run(units)
    assert (report.executed, report.quarantined) == (7, {})
    assert merges[-1].unkeyed_dropped == 0
    stats = [event for event in read_trace(report.trace_path).events
             if event.type == ITERATION_STATS]
    assert sorted((e.data["key"], e.data["payload_key"], e.iteration)
                  for e in stats) == \
        sorted((u.key, u.key, u.payload["x"]) for u in units)


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
def resumable_store_file(engine_campaign, tmp_path_factory):
    """A finished three-experiment store of ``engine_campaign``."""
    path = tmp_path_factory.mktemp("resumable") / "s.jsonl"
    engine_campaign.run(3, seed=5, store=path)
    return path


@pytest.fixture
def resumable_store(resumable_store_file, tmp_path):
    """A private copy of the finished store, for one test to resume."""
    path = tmp_path / "s.jsonl"
    path.write_bytes(resumable_store_file.read_bytes())
    return path


@pytest.fixture(scope="module")
def serial_result(engine_campaign):
    return engine_campaign.run(5, seed=11)


def _store_report(path) -> dict:
    """The training summary over a store file's payloads."""
    return campaign_report_dict([r["payload"] for r in _experiments(path)])


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
        keys = [r["key"] for r in _experiments(tmp_path / "s.jsonl")]
        assert len(keys) == len(set(keys)) == 5

    def test_kill_and_resume_no_duplicates(self, engine_campaign,
                                           serial_result, tmp_path):
        """Kill the run mid-campaign, restart with --resume semantics:
        no experiment key is executed twice and the aggregate breakdown
        matches a straight serial run with the same seeds."""
        path = tmp_path / "s.jsonl"

        def killer(report):
            if report.executed >= 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            engine_campaign.run(5, seed=11, store=path, on_progress=killer)
        partial = [r["key"] for r in _experiments(path)]
        assert len(partial) == 2

        resumed = engine_campaign.run(5, seed=11, store=path, resume=True)
        assert resumed.engine_report.skipped == 2
        assert resumed.engine_report.executed == 3
        keys = [r["key"] for r in _experiments(path)]
        assert len(keys) == len(set(keys)) == 5
        serial_report = campaign_report_dict(serial_result.payloads)
        assert campaign_report_dict(resumed.payloads) == serial_report
        assert _store_report(path) == serial_report

    def test_store_merge_matches_serial(self, engine_campaign,
                                        serial_result, tmp_path):
        """Two half-campaign shards merge into the full campaign."""
        from repro.engine import merge_stores

        engine_campaign.run(5, seed=11, store=tmp_path / "full.jsonl")
        header = read_records(tmp_path / "full.jsonl")[0]
        experiments = _experiments(tmp_path / "full.jsonl")
        for name, shard in (("a", experiments[:2]), ("b", experiments[2:])):
            with ResultStore(tmp_path / f"{name}.jsonl", kind="campaign",
                             meta=header["meta"]) as store:
                for record in shard:
                    store.append(record["key"], record["payload"])
        merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                     tmp_path / "m.jsonl").close()
        assert _store_report(tmp_path / "m.jsonl") == \
            campaign_report_dict(serial_result.payloads)

    def test_store_merge_refuses_two_sample_seeds(self, engine_campaign,
                                                  tmp_path):
        """Two samples of one config are two campaigns: their experiments
        would share indices under one header's seed."""
        from repro.engine import merge_stores

        for seed in (1, 2):
            engine_campaign.run(2, seed=seed, store=tmp_path / f"{seed}.jsonl")
        with pytest.raises(ValueError, match="seed"):
            merge_stores([tmp_path / "1.jsonl", tmp_path / "2.jsonl"],
                         tmp_path / "m.jsonl")

    def test_store_merge_refuses_two_fault_lists(self, engine_campaign,
                                                 tmp_path):
        """Two fault lists of one config both start at index 0: merged,
        they held two experiments at index 0 under a header counting
        one."""
        from repro.engine import merge_stores

        for name, fault in zip("ab", engine_campaign.sample_faults(2, 11)):
            engine_campaign.run(faults=[fault],
                                store=tmp_path / f"{name}.jsonl")
        with pytest.raises(ValueError, match="at index 0 "):
            merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                         tmp_path / "m.jsonl")

    def test_prepare_runs_after_the_session_record(self, tmp_path,
                                                   monkeypatch):
        """A parallel resume prepares (seconds of warm-up) only once the
        store reads as the new session, so a watcher never takes the
        finished previous session for the run."""
        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=6,
                            horizon=10, inject_window=4, test_every=5)
        path = tmp_path / "s.jsonl"
        campaign.run(2, seed=5, store=path)
        seen, prepare = [], campaign.prepare

        def watched_prepare():
            sessions = [r for r in read_records(path)
                        if r["record"] == SESSION]
            seen.append(sessions[-1]["total"])
            prepare()

        monkeypatch.setattr(campaign, "prepare", watched_prepare)
        campaign.run(4, seed=5, store=path, resume=True, parallel=2)
        assert seen == [4]

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
        header = read_records(path)[0]
        records = _experiments(path)
        assert header["meta"]["num_experiments"] == 3
        assert header["meta"]["seed"] is None
        assert len({r["key"] for r in records}) == len(records) == 4
        # The header keeps the first run's size; the session says 4.
        assert collect(path).total == 4

    def test_fully_resumed_parallel_campaign_does_not_prepare(
            self, engine_campaign, tmp_path, monkeypatch):
        """Resuming a finished store at ``parallel > 1`` retrains
        nothing: the parent prepares for its forked workers only when
        some experiment is pending."""
        faults = _sweep(groups=[1], iterations=[7, 9])
        path = tmp_path / "s.jsonl"
        engine_campaign.run(faults=faults, store=path)
        fresh = Campaign(engine_campaign.spec, num_devices=2, seed=0,
                         warmup_iterations=6, horizon=10, inject_window=4,
                         test_every=5)
        prepared = []
        monkeypatch.setattr(fresh, "prepare", lambda: prepared.append(1))
        resumed = fresh.run(faults=faults, store=path, resume=True,
                            parallel=2)
        assert (resumed.engine_report.executed,
                resumed.engine_report.skipped) == (0, 2)
        assert prepared == []

    def test_resume_refuses_another_campaigns_store(self, engine_campaign,
                                                    resumable_store):
        """A campaign resuming a store another configuration wrote must
        not return that campaign's results as its own: the seed-1
        campaign used to skip all three seed-0 experiments."""
        before = resumable_store.read_bytes()
        other = Campaign(engine_campaign.spec, num_devices=2, seed=1,
                         warmup_iterations=6, horizon=10, inject_window=4,
                         test_every=5)
        with pytest.raises(ValueError, match=r"differs .* in seed$"):
            other.run(3, seed=5, store=resumable_store, resume=True)
        assert resumable_store.read_bytes() == before
        with ResultStore(resumable_store, resume=True) as store:
            assert len(store) == 3
        with pytest.raises(ValueError, match="'campaign' run, not a "
                                             "'inference' run"):
            _submit(None, [], kind="inference", meta={},
                    store=resumable_store, resume=True)

    @pytest.mark.parametrize("other", [
        pytest.param({"num_experiments": 3, "seed": 6}, id="another-seed"),
        pytest.param({"num_experiments": 2, "seed": 5}, id="smaller-sample"),
        pytest.param({"faults": "swept"}, id="another-fault-list")])
    def test_resume_refuses_experiments_this_run_does_not_have(
            self, engine_campaign, resumable_store, other):
        """A resume whose units do not cover every key the store holds
        would leave two campaigns' experiments under one header: another
        sample seed used to add three more records at indexes 0-2."""
        before = resumable_store.read_bytes()
        if other.get("faults") == "swept":
            other = {"faults": _sweep(groups=[1], iterations=[7, 8, 9])}
        with pytest.raises(ValueError, match="are not in this run"):
            engine_campaign.run(**other, store=resumable_store, resume=True)
        assert resumable_store.read_bytes() == before

    def test_resume_with_a_larger_sample_extends_the_store(
            self, engine_campaign, resumable_store):
        resumed = engine_campaign.run(4, seed=5, store=resumable_store,
                                      resume=True)
        assert (resumed.engine_report.executed,
                resumed.engine_report.skipped) == (1, 3)
        assert [p["index"] for p in resumed.payloads] == [0, 1, 2, 3]

    def test_resume_may_change_backend_and_batch(self, engine_campaign,
                                                 resumable_store):
        """Outcomes are bit-identical across backends and experiment
        batches, so a resume that changes only those continues the
        store: everything is skipped."""
        batched = Campaign(engine_campaign.spec, num_devices=2, seed=0,
                           warmup_iterations=6, horizon=10, inject_window=4,
                           test_every=5, backend="batched",
                           experiment_batch=2)
        resumed = batched.run(3, seed=5, store=resumable_store, resume=True)
        assert (resumed.engine_report.executed,
                resumed.engine_report.skipped) == (0, 3)

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
                     on_progress=lambda _report: daemonic.extend(
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
    def runner(payloads, sinks):
        time.sleep(0.15 * len(payloads))
        return [{"value": p["x"], "outcome": "ok"} for p in payloads]
    return runner


def _lease_store(path, deadline, settle=()):
    """A store whose session leased key0..key3 to worker 0 with
    ``deadline``, then stored the results of ``settle``."""
    with ResultStore(path, kind="toy") as store:
        store.note(SESSION, total=8, skipped=0)
        store.note(LEASE, worker=0, keys=[f"key{i}" for i in range(4)],
                   deadline=deadline)
        for key in settle:
            store.append(key, {"outcome": "ok"})
    return path


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
        assert "STALLED: w1" in snapshot.worker_summary()
        dashboard = render_text(snapshot)
        assert "3/6 done" in dashboard and "STALLED key=key7" in dashboard

    def test_fast_workers_not_flagged(self):
        snapshot = self._snapshot(stalled=False)
        assert snapshot.stalled_workers == []
        assert "STALLED" not in snapshot.worker_summary()
        assert "STALLED" not in render_text(snapshot)

    def test_no_timeout_disables_stall_flagging(self, tmp_path):
        path = _lease_store(tmp_path / "s.jsonl", deadline=None)
        state = collect(path, now=1e12)
        assert state.busy_workers == [0]
        assert state.stalled_workers == []

    def test_lease_deadline_is_the_stall_flag(self, tmp_path):
        """The flag is the lease's own deadline (here 4 T for a lease of
        four), not the bare per-experiment timeout T."""
        T = 0.25
        path = _lease_store(tmp_path / "s.jsonl", deadline=100.0 + 4 * T)
        assert collect(path, now=100.0 + 3 * T).stalled_workers == []
        state = collect(path, now=100.0 + 5 * T)
        assert state.workers[0].stalled
        assert (state.stalled_workers, state.workers[0].busy_key) \
            == ([0], "key3")
        settled = _lease_store(tmp_path / "t.jsonl", deadline=100.0 + 4 * T,
                               settle=[f"key{i}" for i in range(4)])
        state = collect(settled, now=100.0 + 5 * T)
        assert (state.stalled_workers, state.busy_workers) == ([], [])
        assert state.workers[0].finished == 4

    def test_block_lease_inside_its_deadline_never_reads_stalled(
            self, tmp_path):
        """Leases of four at 2.4 T each, deadline 4 T: a healthy
        `--experiment-batch 4` campaign.  A deadline of the bare T read
        `workers.stalled 2` from T on (and `/healthz` answered 503)."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, kind="toy")
        engine = CampaignEngine(
            _slow_lease_factory,
            EngineConfig(parallel=2, timeout=0.25, block_size=4),
            store=store)
        stalled, stop = [], threading.Event()

        def sampler():
            while not stop.wait(0.02):
                state = collect(path)
                if state.workers:
                    stalled.append(state.sample().gauges["workers.stalled"])

        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            report = engine.run(_units([{} for _ in range(8)]))
        finally:
            stop.set()
            thread.join(timeout=5)
            store.close()
        assert not thread.is_alive()
        assert (report.executed, report.retries, report.quarantined) \
            == (8, 0, {})
        assert len(stalled) >= 10, "the sampler never saw the run"
        assert max(stalled) == 0.0
