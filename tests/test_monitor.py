"""Tests for the live campaign monitor (repro.engine.monitor)."""

import contextlib
import io
import json
import os
import time
import urllib.request

import pytest

from repro.cli import main
from repro.engine import (
    ResultStore,
    collect,
    evaluate_alerts,
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
    read_series,
    shard_path,
)
from repro.serve import serve_monitor


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


class TestCollect:
    def test_store_progress_and_breakdown(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        state = collect(store_path)
        assert state.kind == "campaign"
        assert state.total == 6
        assert state.completed == 3
        assert state.quarantined == 1
        assert state.attempted == 4
        assert state.breakdown == {"ok": 2, "latent_inf_nan": 1}
        assert state.quarantine_rate == pytest.approx(0.25)
        assert state.divergence_rate == pytest.approx(1 / 3)
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


class TestAlerts:
    def test_quarantine_rate_alert(self, tmp_path):
        state = collect(_fixture_store(tmp_path / "r.jsonl"))
        assert evaluate_alerts(state, max_quarantine_rate=0.5) == []
        alerts = evaluate_alerts(state, max_quarantine_rate=0.1)
        assert len(alerts) == 1 and "quarantine rate" in alerts[0]
        assert state.alerts == alerts

    def test_divergence_rate_alert(self, tmp_path):
        state = collect(_fixture_store(tmp_path / "r.jsonl"))
        assert evaluate_alerts(state, max_divergence_rate=0.5) == []
        alerts = evaluate_alerts(state, max_divergence_rate=0.2)
        assert len(alerts) == 1 and "divergence rate" in alerts[0]

    def test_stalled_worker_alert(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard = _busy_shard(tmp_path, 2)
        stale = time.time() - 120
        os.utime(shard, (stale, stale))
        state = collect(store_path, stall_after=30.0)
        alerts = evaluate_alerts(state)
        assert alerts == ["stalled workers: w2"]


class TestRendering:
    @pytest.fixture
    def state(self, tmp_path):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        shard = _busy_shard(tmp_path, 0)
        stale = time.time() - 120
        os.utime(shard, (stale, stale))
        state = collect(store_path, stall_after=30.0)
        evaluate_alerts(state, max_quarantine_rate=0.1)
        return state

    def test_render_text(self, state):
        text = render_text(state)
        assert "3/6 done" in text
        assert "1 quarantined" in text
        assert "latent_inf_nan:1" in text
        assert "STALLED key=key5" in text
        assert "ALERT" in text and "quarantine rate" in text

    def test_render_markdown(self, state):
        md = render_markdown(state)
        assert "| latent_inf_nan | 1 |" in md
        assert "**STALLED** `key5`" in md
        assert "> **ALERT**" in md

    def test_render_html_escapes(self, state):
        state.meta["workload"] = "<resnet>"
        page = render_html(state)
        assert "<!DOCTYPE html>" in page
        assert "&lt;resnet&gt;" in page
        assert "<resnet>" not in page
        assert "STALLED key5" in page


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
        rc = main(["monitor", str(store_path), "--once",
                   "--max-quarantine-rate", "0.1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "quarantine rate" in captured.err

    def test_html_and_markdown_exports(self, tmp_path, capsys):
        store_path = _fixture_store(tmp_path / "r.jsonl")
        html_out = tmp_path / "dash.html"
        md_out = tmp_path / "dash.md"
        rc = main(["monitor", str(store_path), "--once",
                   "--html", str(html_out), "--markdown", str(md_out)])
        assert rc == 0
        assert "<!DOCTYPE html>" in html_out.read_text(encoding="utf-8")
        assert "# Campaign monitor" in md_out.read_text(encoding="utf-8")

    def test_follow_exits_when_campaign_complete(self, tmp_path, capsys):
        store_path = _fixture_store(
            tmp_path / "r.jsonl",
            outcomes=("ok", "ok", "ok", "ok", "ok"), quarantined=("key9",),
            total=6)
        rc = main(["monitor", str(store_path), "--follow",
                   "--interval", "0.01"])
        assert rc == 0
        assert "5/6 done" in capsys.readouterr().out


# ----------------------------------------------------------------------
# One namespace, three sources: the same campaign observed live (the
# samples `campaign --serve` builds from `engine.progress()`), from disk
# (`collect` -> sample) and through `serve_monitor` must read the same
# under every name a rule can address — so one rules file must gate
# every CLI path the same way.
# ----------------------------------------------------------------------
#: Gauges each source measures on its own clock; present once measured
#: but not comparable across sources.
WALL_CLOCK = {"campaign.throughput", "campaign.eta_seconds",
              "campaign.elapsed_seconds",
              "campaign.last_result_age_seconds"}
UNDEFINED_AT_ZERO = WALL_CLOCK - {"campaign.elapsed_seconds"} | {
    "campaign.quarantine_rate", "campaign.divergence_rate"}


def _served_sample(store_path) -> TelemetrySample:
    """What a scraper of `monitor --serve` reads for this store."""
    urls, bodies = [], []

    def scrape(_state):
        with urllib.request.urlopen(urls[0] + "/progress",
                                    timeout=5) as response:
            bodies.append(json.loads(response.read()))

    serve_monitor(store_path, port=0, interval=0.01, max_polls=1,
                  on_start=urls.append, on_poll=scrape)
    return TelemetrySample.from_dict(
        {"t": bodies[0]["t"], **bodies[0]["sample"]})


def _shared(sample: TelemetrySample) -> dict[str, float]:
    return {name: value for name, value in sample.flat().items()
            if name.startswith(("campaign.", "outcome."))
            and name not in WALL_CLOCK}


class TestOneNamespace:
    RULES = [
        # Fires on any finished 3-experiment campaign; at the parent of
        # this test `monitor --json --slo` called the gauge
        # `campaign.completed` and reported no_data / exit 0.
        {"name": "done-floor", "metric": "campaign.done", "min": 100},
        {"name": "qrate-ceiling", "metric": "campaign.quarantine_rate",
         "max": 0.9},
    ]

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """One small live campaign served with the rules file; the
        series it leaves behind is the live source's own samples."""
        tmp = tmp_path_factory.mktemp("one-namespace")
        rules = tmp / "rules.json"
        rules.write_text(json.dumps(self.RULES), encoding="utf-8")
        store = tmp / "camp.jsonl"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(["campaign", "resnet", "--experiments", "3",
                       "--devices", "2", "--store", str(store),
                       "--serve", "0", "--serve-interval", "0.05",
                       "--slo", str(rules)])
        empty = ResultStore(tmp / "empty.jsonl", kind="campaign",
                            meta={"workload": "resnet",
                                  "num_experiments": 3})
        empty.close()
        _, live = read_series(store.with_name("camp.series.jsonl"))
        return {"store": store, "empty": tmp / "empty.jsonl",
                "rules": rules, "live": live,
                "campaign-serve": (rc, stderr.getvalue())}

    @pytest.mark.parametrize("source", ["live", "disk", "served"])
    def test_sources_agree_and_one_rules_file_gates_every_path(
            self, campaign, source, capsys):
        store, rules = str(campaign["store"]), str(campaign["rules"])
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

        # Finished: every key both sources report reads the same as
        # from disk, and the rates are now defined everywhere.
        got, want = _shared(final), _shared(reference)
        assert {k: got[k] for k in want} == want
        assert want == {
            "campaign.done": 3.0, "campaign.total": 3.0,
            "campaign.remaining": 0.0, "campaign.quarantined": 0.0,
            "campaign.quarantine_rate": 0.0,
            "campaign.divergence_rate": 0.0,
            **{f"outcome.{label}": float(count) for label, count
               in collect(store).breakdown.items()}}
        assert sum(collect(store).breakdown.values()) == 3
        assert final.gauges["campaign.throughput"] > 0.0

        # One rules file, the same firing set and exit code on every
        # CLI path that reads this source.
        gates = []
        if source == "live":
            rc, err = campaign["campaign-serve"]
            assert "critical rule: done-floor" in err
            gates.append((rc, {n for n in ("done-floor", "qrate-ceiling")
                               if n in err}))
        elif source == "disk":
            rc = main(["monitor", store, "--json", "--slo", rules])
            doc = json.loads(capsys.readouterr().out)
            gates.append((rc, {s["rule"] for s in doc["slo"]
                               if s["state"] == "firing"}))
            rc = main(["monitor", store, "--once", "--slo", rules])
            out = capsys.readouterr().out
            gates.append((rc, {line.split()[2].rstrip(":")
                               for line in out.splitlines()
                               if line.startswith("  SLO ")}))
        else:
            rc = main(["monitor", store, "--serve", "0", "--interval",
                       "0.01", "--slo", rules])
            err = capsys.readouterr().err
            gates.append((rc, {part.removeprefix("slo:")
                               for part in err.strip().removeprefix(
                                   "monitor: ").split("; ")}))
        assert gates and all(gate == (1, {"done-floor"}) for gate in gates)


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
