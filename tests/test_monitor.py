"""Tests for the live campaign monitor (repro.engine.monitor)."""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.faults import Campaign
from repro.engine import (
    CampaignEngine,
    EngineConfig,
    ResultStore,
    WorkUnit,
    monitor,
    collect,
    render_html,
    render_markdown,
    render_text,
    snapshot_dict,
    store as store_module,
)
from repro.engine.worker import UnitCapture
from repro.observe import (
    DETECTOR_FIRED,
    ITERATION_STATS,
    TelemetrySample,
    Tracer,
    campaign_trace_path,
    shard_path,
)
from repro.observe.slo import SLOEngine, SLORule, load_rules
from repro.serve import watch_store
from repro.workloads import build_workload

SRC = Path(__file__).resolve().parent.parent / "src"


def _fixture_store(path, outcomes=("ok", "ok", "latent_inf_nan"),
                   quarantined=("key9",), total=6):
    store = ResultStore(path, kind="campaign",
                        meta={"workload": "resnet",
                              "num_experiments": total})
    for i, outcome in enumerate(outcomes):
        store.append(f"key{i}", {"outcome": outcome, "index": i})
    for key in quarantined:
        store.quarantine(key, "RuntimeError: deliberate failure")
    store.close()
    return path


def _busy_shard(directory, worker_id, key="key5", finished=1):
    """A shard whose worker is mid-experiment (started, not finished)."""
    path = shard_path(directory, worker_id)
    with Tracer(stream=path, meta={"worker": worker_id}) as tracer:
        capture = UnitCapture(tracer, worker_id)
        for i in range(finished):
            capture.done(capture.start(f"done{worker_id}_{i}"),
                         {"outcome": "ok"})
        capture.start(key).emit(ITERATION_STATS, iteration=0, loss=1.0)
    return path


def _rules_file(directory, rules, name="rules.json"):
    path = directory / name
    path.write_text(json.dumps(rules), encoding="utf-8")
    return str(path)


def _watched_campaign(store, *argv, rules=None):
    """Run ``repro campaign resnet --devices 2 --store store *argv`` in a
    process of its own and watch its store while it runs, the way
    ``repro monitor --follow`` next to it would: returns the state of
    every poll and the watch's SLO engine (``rules``: a rules file)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "resnet", "--devices",
         "2", "--store", str(store), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    polls = []
    try:
        deadline = time.monotonic() + 120
        while not (store.exists() and store.read_bytes().endswith(b"\n")):
            assert process.poll() is None, process.stdout.read()
            assert time.monotonic() < deadline, "no store header"
            time.sleep(0.01)
        _, slo = watch_store(
            store, rules=load_rules(rules) if rules else None, interval=0.05,
            on_poll=lambda state, _statuses: polls.append(state))
    finally:
        out, _ = process.communicate(timeout=600)
    assert process.returncode == 0, out
    return polls, slo


class TestCollect:
    def test_store_progress_and_breakdown(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        state = collect(store_path)
        assert state.kind == "campaign"
        assert state.total == 6
        assert state.done == 3
        assert state.quarantined == 1
        assert state.attempted == 4
        assert state.breakdown == {"ok": 2, "latent_inf_nan": 1}
        gauges = state.sample().gauges
        assert gauges["campaign.quarantine_rate"] == pytest.approx(0.25)
        assert gauges["campaign.divergence_rate"] == pytest.approx(1 / 3)
        assert state.recent[-1]["outcome"] == "quarantined"
        assert state.last_result_age is not None

    def test_worker_shards_busy_and_idle(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        _busy_shard(tmp_path, 0)
        with Tracer(stream=shard_path(tmp_path, 1)) as tracer:
            capture = UnitCapture(tracer, 1)
            capture.done(capture.start("done1"), {"outcome": "ok"})
        state = collect(store_path)
        assert [w.worker for w in state.workers] == [0, 1]
        busy, idle = state.workers
        assert busy.busy_key == "key5"
        assert busy.finished == 1
        assert idle.busy_key is None
        assert idle.finished == 1
        assert state.stalled_workers == []

    def test_stall_detection_from_shard_age(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard = _busy_shard(tmp_path, 0)
        stale = time.time() - 120
        os.utime(shard, (stale, stale))
        state = collect(store_path, stall_after=30.0)
        assert state.workers[0].stalled
        assert state.stalled_workers == [0]
        # An idle worker is never stalled, no matter how old its shard.
        state = collect(store_path, stall_after=None)
        assert state.stalled_workers == []

    def test_unreadable_shard_is_flagged_not_fatal(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard_path(tmp_path, 0).write_text('{"record":"hea', encoding="utf-8")
        state = collect(store_path)
        assert state.workers[0].unreadable

    def test_detections_collected_from_shards(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        path = shard_path(tmp_path, 0)
        with Tracer(stream=path) as tracer:
            capture = UnitCapture(tracer, 0)
            view = capture.start("key0")
            view.emit(DETECTOR_FIRED, iteration=7,
                      condition="gradient_history", magnitude=1e9,
                      bound=1.0)
            capture.done(view, {"outcome": "degraded"})
        state = collect(store_path)
        assert state.detections[-1]["key"] == "key0"
        assert state.detections[-1]["iteration"] == 7

    def test_each_trace_file_is_read_once_per_collect(self, tmp_path,
                                                      monkeypatch):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shards = [_busy_shard(tmp_path, 0), _busy_shard(tmp_path, 1)]
        merged = campaign_trace_path(store_path)
        Tracer().export(merged)
        reads = []
        real = monitor.read_trace
        monkeypatch.setattr(monitor, "read_trace",
                            lambda path: reads.append(path) or real(path))
        collect(store_path)
        assert sorted(reads) == sorted([merged, *shards])


class TestAlerts:
    """Gating a gauge is a one-rule file (the thresholds and exit codes
    the removed `--max-*-rate` flags had); the stalled-worker gate is the
    built-in rule."""

    def _gate(self, tmp_path, capsys, rule, *extra):
        store_path = tmp_path / "r.jsonl"
        if not store_path.exists():
            _fixture_store(store_path)
        rules = _rules_file(tmp_path, [{"name": "gate", **rule}])
        rc = main(["monitor", str(store_path), "--once", "--slo", rules,
                   *extra])
        return rc, capsys.readouterr()

    def test_quarantine_rate_alert(self, tmp_path, capsys):
        metric = {"metric": "campaign.quarantine_rate"}
        rc, _ = self._gate(tmp_path, capsys, {**metric, "max": 0.5})
        assert rc == 0
        rc, captured = self._gate(tmp_path, capsys, {**metric, "max": 0.1})
        assert rc == 1
        assert "gate: campaign.quarantine_rate=0.25 > 0.1 (firing)" \
            in captured.out
        assert captured.err == \
            "slo: sustained breach of critical rule: gate\n"

    def test_divergence_rate_alert(self, tmp_path, capsys):
        metric = {"metric": "campaign.divergence_rate"}
        rc, _ = self._gate(tmp_path, capsys, {**metric, "max": 0.5})
        assert rc == 0
        rc, captured = self._gate(tmp_path, capsys, {**metric, "max": 0.2})
        assert rc == 1
        assert "gate: campaign.divergence_rate=0.3333 > 0.2 (firing)" \
            in captured.out

    def test_stalled_worker_alert(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard = _busy_shard(tmp_path, 2)
        stale = time.time() - 120
        os.utime(shard, (stale, stale))
        args = ["monitor", str(store_path), "--once"]
        # No --stall-after, no flag; the built-in rule is quiet.
        assert main(args) == 0
        assert "SLO" not in capsys.readouterr().out
        assert main(args + ["--stall-after", "30"]) == 1
        captured = capsys.readouterr()
        assert "STALLED: w2" in captured.out
        assert "stalled-workers: workers.stalled=1 > 0 (firing)" \
            in captured.out
        assert "critical rule: stalled-workers" in captured.err
        # A rules file replaces the built-in set.
        rc, captured = self._gate(
            tmp_path, capsys,
            {"metric": "campaign.quarantine_rate", "max": 0.5},
            "--stall-after", "30")
        assert rc == 0 and "STALLED: w2" in captured.out


class TestRendering:
    @pytest.fixture
    def state(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard = _busy_shard(tmp_path, 0)
        stale = time.time() - 120
        os.utime(shard, (stale, stale))
        return collect(store_path, stall_after=30.0)

    @pytest.fixture
    def statuses(self, state):
        rules = [SLORule("qrate", "campaign.quarantine_rate", max=0.1),
                 SLORule("quiet", "campaign.quarantine_rate", max=0.9)]
        return SLOEngine(rules).evaluate(state.sample().flat(), now=0.0)

    FIRING = "[critical] qrate: campaign.quarantine_rate=0.25 > 0.1 (firing)"

    def test_render_text(self, state, statuses):
        text = render_text(state, statuses)
        assert "3/6 done" in text
        assert "1 quarantined" in text
        assert "latent_inf_nan:1" in text
        assert "STALLED key=key5" in text
        assert f"  SLO        {self.FIRING}" in text
        assert "quiet" not in text and "SLO" not in render_text(state)

    def test_render_markdown(self, state, statuses):
        md = render_markdown(state, statuses)
        assert "| latent_inf_nan | 1 |" in md
        assert "**STALLED** `key5`" in md
        assert f"> **SLO**: {self.FIRING}" in md
        assert "quiet" not in md

    def test_render_html_escapes(self, state, statuses):
        state.meta["workload"] = "<resnet>"
        page = render_html(state, statuses)
        assert "<!DOCTYPE html>" in page
        assert "&lt;resnet&gt;" in page
        assert "<resnet>" not in page
        assert "STALLED key5" in page
        assert "SLO: [critical] qrate: campaign.quarantine_rate=0.25 " \
            "&gt; 0.1 (firing)" in page
        assert "quiet" not in page


class TestMonitorCli:
    def test_once_ok_exit_zero(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rc = main(["monitor", str(store_path), "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign monitor" in out
        assert "3/6 done" in out

    def test_once_alert_exit_nonzero(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rules = _rules_file(tmp_path, [
            {"name": "quarantine-rate",
             "metric": "campaign.quarantine_rate", "max": 0.1}])
        rc = main(["monitor", str(store_path), "--once", "--slo", rules])
        captured = capsys.readouterr()
        assert rc == 1
        assert "quarantine-rate" in captured.err

    def test_html_and_markdown_exports(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        html_out = tmp_path / "dash.html"
        md_out = tmp_path / "dash.md"
        rc = main(["monitor", str(store_path), "--once",
                   "--html", str(html_out), "--markdown", str(md_out)])
        assert rc == 0
        assert "<!DOCTYPE html>" in html_out.read_text(encoding="utf-8")
        assert "# Campaign monitor" in md_out.read_text(encoding="utf-8")

    def test_unreadable_store_is_an_operator_error_in_every_mode(
            self, tmp_path, capsys):
        for mode in (["--once"], ["--json"], ["--follow"], ["--serve", "0"]):
            assert main(["monitor", str(tmp_path / "missing.jsonl"),
                         *mode]) == 2
            assert "error: monitor polling failed: FileNotFoundError" \
                in capsys.readouterr().err

    def test_follow_exits_when_campaign_complete(self, tmp_path, capsys):
        store_path = _fixture_store(
            tmp_path / "r.jsonl",
            outcomes=("ok", "ok", "ok", "ok", "ok"), quarantined=("key9",),
            total=6)
        rc = main(["monitor", str(store_path), "--follow",
                   "--interval", "0.01"])
        assert rc == 0
        assert capsys.readouterr().out.count("5/6 done") == 1


# ----------------------------------------------------------------------
# One namespace, three views of one store: what a watch saw while the
# campaign ran, `collect` after it (-> sample) and a served
# `watch_store` must read the same under every name a rule can address —
# so one rules file must gate every CLI path the same way.
# ----------------------------------------------------------------------
#: Gauges each view measures on its own clock; present once measured
#: but not comparable across views.
WALL_CLOCK = {"campaign.throughput", "campaign.eta_seconds",
              "campaign.elapsed_seconds",
              "campaign.last_result_age_seconds"}
UNDEFINED_AT_ZERO = WALL_CLOCK - {"campaign.elapsed_seconds"} | {
    "campaign.quarantine_rate", "campaign.divergence_rate"}
#: Facts of one session: the fixture's resume is a second session.
SESSION_FACTS = {"campaign.skipped", "campaign.retries"}


def _served_sample(store_path) -> TelemetrySample:
    """What a scraper of `monitor --serve` reads for this store."""
    urls, bodies = [], []

    def scrape(_state, _statuses):
        with urllib.request.urlopen(urls[0] + "/progress",
                                    timeout=5) as response:
            bodies.append(json.loads(response.read()))

    watch_store(store_path, port=0, interval=0.01, max_polls=1,
                on_start=urls.append, on_poll=scrape)
    return TelemetrySample.from_dict(
        {"t": bodies[0]["t"], **bodies[0]["sample"]})


def _shared(sample: TelemetrySample) -> dict[str, float]:
    return {name: value for name, value in sample.flat().items()
            if name.startswith(("campaign.", "outcome."))
            and name not in WALL_CLOCK | SESSION_FACTS}


def _firing_lines(out: str) -> set[str]:
    """Rule names the text dashboard(s) in ``out`` show as firing."""
    return {line.split()[2].rstrip(":") for line in out.splitlines()
            if line.startswith("  SLO ") and "(firing)" in line}


def _gated(err: str) -> set[str]:
    """Rule names on the one gate line (empty: the line is absent)."""
    prefix = "slo: sustained breach of critical rule"
    lines = [line for line in err.splitlines() if line.startswith(prefix)]
    assert len(lines) <= 1
    return set(lines[0].split(": ", 2)[2].split(", ")) if lines else set()


def _monitor_gates(store, rules, capsys) -> dict:
    """``mode -> (exit code, rules shown firing, rules on the gate
    line)`` for every `repro monitor` mode over one finished store."""
    gates = {}
    rc = main(["monitor", store, "--json", "--slo", rules])
    captured = capsys.readouterr()
    gates["json"] = (rc, {s["rule"] for s in json.loads(captured.out)["slo"]
                          if s["state"] == "firing"}, _gated(captured.err))
    for mode in (["--once"], ["--follow"], ["--serve", "0"]):
        rc = main(["monitor", store, *mode, "--interval", "0.01",
                   "--slo", rules])
        captured = capsys.readouterr()
        gates[mode[0]] = (rc, _firing_lines(captured.out),
                          _gated(captured.err))
    return gates


class TestOneNamespace:
    WARNING = {"name": "warn-only", "metric": "campaign.done", "max": 1,
               "severity": "warning"}
    RULES = [
        # Fires on any finished 3-experiment campaign; at the parent of
        # this test `monitor --json --slo` called the gauge
        # `campaign.completed` and reported no_data / exit 0.
        {"name": "done-floor", "metric": "campaign.done", "min": 100},
        {"name": "qrate-ceiling", "metric": "campaign.quarantine_rate",
         "max": 0.9},
        # Fires too, and only reports: at the parent it made `--once`,
        # `--json` and `--follow` exit 1 and `--serve` exit 0.
        WARNING,
    ]

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """One small campaign watched with the rules file while it runs;
        the states that watch polled are the live view.  Then the same
        store resumed (nothing left to run), watched under the
        warning-only file."""
        tmp = tmp_path_factory.mktemp("one-namespace")
        rules = _rules_file(tmp, self.RULES)
        warning = _rules_file(tmp, [self.WARNING], "warning.json")
        store = tmp / "camp.jsonl"
        watched = []
        for extra, file in (([], rules), (["--resume"], warning)):
            polls, slo = _watched_campaign(store, "--experiments", "3",
                                           *extra, rules=file)
            watched.append((1 if slo.breached() else 0, set(slo.breached())))
            if len(watched) == 1:
                live = [state.sample() for state in polls]
        empty = ResultStore(tmp / "empty.jsonl", kind="campaign",
                            meta={"workload": "resnet",
                                  "num_experiments": 3})
        empty.close()
        return {"store": store, "empty": tmp / "empty.jsonl",
                "rules": rules, "warning": warning, "live": live,
                "watched": watched}

    @pytest.mark.parametrize("source", ["live", "disk", "served"])
    def test_sources_agree_and_one_rules_file_gates_every_path(
            self, campaign, source, capsys):
        store = str(campaign["store"])
        reference = collect(store).sample()
        if source == "live":
            unstarted = [s for s in campaign["live"]
                         if s.gauges.get("campaign.done") == 0.0]
            final = campaign["live"][-1]
        elif source == "disk":
            unstarted = [collect(campaign["empty"]).sample()]
            final = collect(store).sample()
        else:
            unstarted = [_served_sample(campaign["empty"])]
            final = _served_sample(store)

        # Zero completions: rates, throughput and ETA are absent (a rule
        # over them is no_data), never a trivially-passing 0.0.
        assert unstarted
        for sample in unstarted:
            assert sample.gauges["campaign.done"] == 0.0
            assert sample.gauges["campaign.total"] == 3.0
            assert not UNDEFINED_AT_ZERO & set(sample.flat())

        # Finished: the sources report the same keys, every one reads
        # the same as from disk, and the rates are defined everywhere.
        assert _shared(final) == _shared(reference) == {
            "campaign.done": 3.0, "campaign.total": 3.0,
            "campaign.remaining": 0.0, "campaign.quarantined": 0.0,
            "campaign.quarantine_rate": 0.0,
            "campaign.divergence_rate": 0.0,
            **{f"outcome.{label}": float(count) for label, count
               in collect(store).breakdown.items()}}
        assert sum(collect(store).breakdown.values()) == 3
        # The rate is the last session's: the resume ran nothing, so
        # only the watch of the first session measured one.
        if source == "live":
            assert final.gauges["campaign.throughput"] > 0.0
        else:
            assert "campaign.throughput" not in final.gauges

        # One rules file: on every CLI path that reads this source the
        # critical rule that fired gates, the warning rule that fired is
        # shown and does not; the warning rule alone gates nothing.
        if source == "live":
            assert campaign["watched"] == [(1, {"done-floor"}), (0, set())]
            return
        modes = {"disk": ("json", "--once", "--follow"),
                 "served": ("--serve",)}[source]
        gates = _monitor_gates(store, campaign["rules"], capsys)
        quiet = _monitor_gates(store, campaign["warning"], capsys)
        for mode in modes:
            assert gates[mode] == (1, {"done-floor", "warn-only"},
                                   {"done-floor"}), mode
            assert quiet[mode] == (0, {"warn-only"}, set()), mode

    def _growing_store(self, path):
        """2/4 done now, 3/4 after ~0.5 s, complete after ~1 s."""
        store = ResultStore(path, kind="campaign",
                            meta={"workload": "resnet",
                                  "num_experiments": 4})
        store.append("key0", {"outcome": "ok"})
        store.append("key1", {"outcome": "ok"})

        def finish():
            for key in ("key2", "key3"):
                time.sleep(0.5)
                store.append(key, {"outcome": "ok"})
            store.close()

        writer = threading.Thread(target=finish)
        writer.start()
        return writer

    @pytest.mark.parametrize("mode", [["--follow"], ["--serve", "0"]],
                             ids=["follow", "serve"])
    def test_a_watch_holds_one_engine_across_its_polls(
            self, tmp_path, capsys, mode):
        """A sustained rule needs history and a resolved rule needs
        memory; at the parent `--follow` built a fresh engine per poll,
        never printed either rule and exited 0."""
        rules = _rules_file(tmp_path, [
            # Breached throughout, fires once it held for 0.2 s.
            {"name": "sustained", "metric": "campaign.done", "max": 1,
             "for_seconds": 0.2},
            # Fires at the first poll, resolves at 3/4 — before the
            # store completes and the watch ends.
            {"name": "resolved", "metric": "campaign.done", "min": 3}])
        writer = self._growing_store(tmp_path / "grow.jsonl")
        try:
            rc = main(["monitor", str(tmp_path / "grow.jsonl"), *mode,
                       "--interval", "0.05", "--slo", rules])
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        captured = capsys.readouterr()
        assert rc == 1
        assert _gated(captured.err) == {"sustained", "resolved"}
        dashboards = captured.out.split("== campaign monitor:")[1:]
        assert "4/4 done" in dashboards[-1]
        assert "sustained: campaign.done=2 > 1 (pending)" in dashboards[0]
        assert _firing_lines(dashboards[-1]) == {"sustained"}
        # One observation cannot sustain the rule: pending, no gate.
        once = _rules_file(tmp_path, [
            {"name": "sustained", "metric": "campaign.done", "max": 1,
             "for_seconds": 0.2}], "once.json")
        assert main(["monitor", str(tmp_path / "grow.jsonl"), "--once",
                     "--slo", once]) == 0
        assert "sustained: campaign.done=4 > 1 (pending)" \
            in capsys.readouterr().out


class TestParallelInvariance:
    """A campaign's telemetry is its store alone: the same fault list
    watched at any ``--parallel`` has one set of names and counts, and
    the last poll of a watch during the run reads, name for name, what
    the store reads after it.  ``campaign.skipped|retries`` and
    ``workers.restarts`` come from the store's session records; at the
    parent of this test only the engine's live tracker had them."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """parallel -> (last state a watch polled, store) of one seeded
        ``--detect`` campaign at that worker count."""
        runs = {}
        for parallel in (2, 1):
            store = tmp_path_factory.mktemp(f"parallel{parallel}") / "c.jsonl"
            polls, _ = _watched_campaign(
                store, "--experiments", "4", "--detect",
                "--parallel", str(parallel))
            runs[parallel] = (polls[-1], store)
        return runs

    def test_same_names_and_counts_at_any_parallel(self, runs):
        serial, parallel = (runs[p][0].sample().flat() for p in (1, 2))
        assert set(serial) == set(parallel)
        counted = [name for name in serial if name.startswith("outcome.")
                   or name in ("campaign.done", "campaign.quarantined",
                               "campaign.skipped", "campaign.retries",
                               "workers.restarts")]
        assert {name: serial[name] for name in counted} == \
            {name: parallel[name] for name in counted}
        assert serial["campaign.done"] == 4.0
        assert serial["campaign.skipped"] == serial["campaign.retries"] \
            == serial["workers.restarts"] == 0.0

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_every_live_name_reads_from_the_store(self, runs, parallel):
        last, store = runs[parallel]
        live, disk = last.sample().flat(), collect(store).sample().flat()
        assert set(live) == set(disk)
        assert {n: v for n, v in live.items() if n not in WALL_CLOCK} == \
            {n: v for n, v in disk.items() if n not in WALL_CLOCK}


def _crash_once(flag: Path):
    """A ``Campaign._engine_runner`` whose worker dies on the first
    attempt of the unit at index 1 (``flag`` marks that it did)."""
    real = Campaign._engine_runner

    def engine_runner(self):
        run_lease = real(self)

        def runner(payloads, sinks):
            if any(p["index"] == 1 for p in payloads) and not flag.exists():
                flag.write_text("crashed")
                os._exit(3)
            return run_lease(payloads, sinks)

        return runner

    return engine_runner


class TestObservability:
    def test_monitor_after_the_run_equals_the_last_poll_during_it(
            self, tmp_path, monkeypatch, capsys):
        """Anything a watch saw while the campaign ran, `monitor --json`
        over its store sees after it: a ``--parallel 2`` campaign with a
        killed worker and a retry, field for field (the snapshot has no
        wall-clock field)."""
        monkeypatch.setattr(Campaign, "_engine_runner",
                            _crash_once(tmp_path / "crashed"))
        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=6,
                            horizon=10, inject_window=4, test_every=5)
        campaign.prepare()
        path = tmp_path / "c.jsonl"
        polls = []

        def watch():
            while not (path.exists() and path.read_bytes().endswith(b"\n")):
                time.sleep(0.005)
            watch_store(path, interval=0.02, on_poll=lambda state, statuses:
                        polls.append(snapshot_dict(state, statuses)))

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            result = campaign.run(4, seed=5, parallel=2, store=path)
        finally:
            watcher.join(timeout=60)
        assert not watcher.is_alive()
        report = result.engine_report
        assert (report.executed, report.retries, report.quarantined) \
            == (4, 1, {})
        assert main(["monitor", str(path), "--json"]) == 0
        after = json.loads(capsys.readouterr().out)
        assert len(polls) >= 2
        assert after == json.loads(json.dumps(polls[-1]))
        assert (after["completed"], after["skipped"], after["retries"],
                after["restarts"]) == (4, 0, 1, 1)
        assert sum(w["finished"] for w in after["workers"]) <= 4
        assert all(w["busy_key"] is None for w in after["workers"])


def _counting_factory(clock):
    """Toy runner: each unit takes one second of ``clock``."""
    def runner(payloads, sinks):
        clock[0] += len(payloads)
        return [{"outcome": "ok", "x": p["x"]} for p in payloads]
    return lambda: runner


def _grow(path, clock, n, stop_after=None):
    """Run units 0..n-1 into ``path`` (resuming it if it exists),
    interrupted once ``stop_after`` units ran this session."""
    units = [WorkUnit(key=f"k{i}", payload={"x": i}) for i in range(n)]

    def interrupt(report):
        if report.executed == stop_after:
            raise KeyboardInterrupt

    with ResultStore(path, kind="toy", meta={"num_experiments": n},
                     resume=path.exists()) as store:
        try:
            CampaignEngine(_counting_factory(clock), EngineConfig(),
                           store=store, on_progress=interrupt).run(units)
        except KeyboardInterrupt:
            pass


class TestGrowth:
    """A resume that grows a store keeps the first run's header, so its
    size and rate are the current session's."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr(store_module, "time",
                            SimpleNamespace(time=lambda: clock[0]))
        return clock

    def test_a_grown_store_reads_its_new_total(self, tmp_path, clock):
        """At the parent a 4-experiment store grown to 8 read `total 4`
        and `complete True` after 6 results."""
        path = tmp_path / "s.jsonl"
        _grow(path, clock, 4)
        _grow(path, clock, 8, stop_after=2)
        state = collect(path)
        assert (state.total, state.done, state.skipped) == (8, 6, 4)
        assert not state.complete

    def test_a_watch_does_not_stop_at_the_first_runs_total(
            self, tmp_path, clock):
        """`monitor --follow` / `--serve` stop once the campaign is
        complete: at the parent that was the first poll."""
        path = tmp_path / "s.jsonl"
        _grow(path, clock, 4)
        _grow(path, clock, 8, stop_after=2)
        polls = []
        watch_store(path, interval=0.01, max_polls=3,
                    on_poll=lambda state, _statuses: polls.append(state.done))
        assert polls == [6, 6, 6]

    def test_throughput_is_the_current_sessions(self, tmp_path, clock):
        """Four results at 1/s, then a day later four more at 1/s: the
        rate reads 1.0, not 8 over the day between (8.1e-05 at the
        parent)."""
        path = tmp_path / "s.jsonl"
        _grow(path, clock, 4)
        clock[0] += 86400
        _grow(path, clock, 8)
        state = collect(path, now=clock[0])
        assert state.throughput == pytest.approx(1.0)
        assert state.complete and state.total == 8
        assert state.elapsed == pytest.approx(4.0)
        assert state.eta == 0.0


class TestMonitorSlo:
    def _rules(self, tmp_path, rules):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        return path

    def test_json_embeds_slo_statuses(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rules = self._rules(tmp_path, [
            {"name": "qrate", "metric": "campaign.quarantine_rate",
             "max": 0.1, "severity": "critical"},
            {"name": "healthy-divergence",
             "metric": "campaign.divergence_rate", "max": 0.9}])
        rc = main(["monitor", str(store_path), "--json",
                   "--slo", str(rules)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1  # the 0.25 quarantine rate breaches max=0.1
        by_rule = {s["rule"]: s for s in doc["slo"]}
        assert by_rule["qrate"]["state"] == "firing"
        assert by_rule["healthy-divergence"]["state"] == "ok"

    def test_text_mode_prints_firing_rules_and_gates(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rules = self._rules(tmp_path, [
            {"name": "qrate", "metric": "campaign.quarantine_rate",
             "max": 0.1}])
        rc = main(["monitor", str(store_path), "--once",
                   "--slo", str(rules)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SLO" in out and "qrate" in out

    def test_passing_rules_exit_zero(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rules = self._rules(tmp_path, [
            {"name": "qrate", "metric": "campaign.quarantine_rate",
             "max": 0.9}])
        rc = main(["monitor", str(store_path), "--once",
                   "--slo", str(rules)])
        assert rc == 0

    def test_malformed_rules_are_usage_error(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        rules = self._rules(tmp_path, [{"name": "bad", "metric": "m"}])
        rc = main(["monitor", str(store_path), "--once",
                   "--slo", str(rules)])
        assert rc == 2
