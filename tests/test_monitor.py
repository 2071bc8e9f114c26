"""Tests for the live campaign monitor (repro.engine.monitor)."""

import contextlib
import io
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.engine import (
    ResultStore,
    monitor,
    collect,
    render_html,
    render_markdown,
    render_text,
)
from repro.engine.worker import UnitCapture
from repro.observe import (
    DETECTOR_FIRED,
    ITERATION_STATS,
    TelemetrySample,
    Tracer,
    campaign_trace_path,
    read_series,
    shard_path,
)
from repro.observe.slo import SLOEngine, SLORule
from repro.serve import watch_store


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
# One namespace, three sources: the same campaign observed live (the
# samples `campaign --serve` builds from `engine.progress()`), from disk
# (`collect` -> sample) and through a served `watch_store` must read the
# same under every name a rule can address — so one rules file must gate
# every CLI path the same way.
# ----------------------------------------------------------------------
#: Gauges each source measures on its own clock; present once measured
#: but not comparable across sources.
WALL_CLOCK = {"campaign.throughput", "campaign.eta_seconds",
              "campaign.elapsed_seconds",
              "campaign.last_result_age_seconds"}
UNDEFINED_AT_ZERO = WALL_CLOCK - {"campaign.elapsed_seconds"} | {
    "campaign.quarantine_rate", "campaign.divergence_rate"}
#: Facts only the live tracker has.
LIVE_ONLY = {"campaign.skipped", "campaign.retries"}


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
            and name not in WALL_CLOCK | LIVE_ONLY}


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
        """One small live campaign served with the rules file; the
        series it leaves behind is the live source's own samples.  Then
        the same store resumed (nothing left to run) under the
        warning-only file."""
        tmp = tmp_path_factory.mktemp("one-namespace")
        rules = _rules_file(tmp, self.RULES)
        warning = _rules_file(tmp, [self.WARNING], "warning.json")
        store = tmp / "camp.jsonl"
        served = []
        for extra in (["--slo", rules], ["--resume", "--slo", warning]):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                rc = main(["campaign", "resnet", "--experiments", "3",
                           "--devices", "2", "--store", str(store),
                           "--serve", "0", "--serve-interval", "0.05",
                           *extra])
            served.append((rc, _gated(stderr.getvalue())))
            if len(served) == 1:
                _, live = read_series(store.with_name("camp.series.jsonl"))
        empty = ResultStore(tmp / "empty.jsonl", kind="campaign",
                            meta={"workload": "resnet",
                                  "num_experiments": 3})
        empty.close()
        return {"store": store, "empty": tmp / "empty.jsonl",
                "rules": rules, "warning": warning, "live": live,
                "campaign-serve": served}

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
        assert final.gauges["campaign.throughput"] > 0.0

        # One rules file: on every CLI path that reads this source the
        # critical rule that fired gates, the warning rule that fired is
        # shown and does not; the warning rule alone gates nothing.
        if source == "live":
            assert campaign["campaign-serve"] == [(1, {"done-floor"}),
                                                  (0, set())]
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
    """A campaign's telemetry is its state alone: the same fault list
    read live at any ``--parallel`` has one set of names, and every one
    of them that is not a live-only extra reads from the store too.  At
    the parent of this test the live samples also folded in a
    process-global registry whose detector counters were bumped in the
    forked workers, so they read differently at ``--parallel 2``, and
    `monitor` had none of its names."""

    #: What only the live tracker knows.
    LIVE_EXTRAS = LIVE_ONLY | {"campaign.elapsed_seconds", "workers.restarts"}

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """parallel -> (final live sample, store) of one seeded
        ``--detect`` campaign served at that worker count."""
        runs = {}
        # Parallel first: a process-wide metric the serial run filled
        # would otherwise carry its names into the parallel run's samples.
        for parallel in (2, 1):
            store = tmp_path_factory.mktemp(f"parallel{parallel}") / "c.jsonl"
            with contextlib.redirect_stderr(io.StringIO()):
                rc = main(["campaign", "resnet", "--experiments", "4",
                           "--devices", "2", "--detect",
                           "--parallel", str(parallel), "--store", str(store),
                           "--serve", "0", "--serve-interval", "0.05"])
            assert rc == 0
            _, live = read_series(store.with_name("c.series.jsonl"))
            runs[parallel] = (live[-1].flat(), store)
        return runs

    def test_same_names_and_counts_at_any_parallel(self, runs):
        (serial, _), (parallel, _) = runs[1], runs[2]
        assert set(serial) == set(parallel)
        counted = [name for name in serial if name.startswith("outcome.")
                   or name in ("campaign.done", "campaign.quarantined")]
        assert {name: serial[name] for name in counted} == \
            {name: parallel[name] for name in counted}
        assert serial["campaign.done"] == 4.0

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_every_live_name_reads_from_the_store(self, runs, parallel):
        live, store = runs[parallel]
        assert set(live) - self.LIVE_EXTRAS <= set(collect(store).sample().flat())


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
