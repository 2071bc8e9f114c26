"""Tests for the declarative SLO rule engine (repro.observe.slo)."""

import json

import pytest

from repro.observe.slo import (
    FIRING,
    NO_DATA,
    OK,
    PENDING,
    SLOConfigError,
    SLOEngine,
    SLORule,
    load_rules,
)


def _rule(**overrides):
    base = {"name": "r", "metric": "m", "max": 1.0}
    base.update(overrides)
    return SLORule(**base)


# ----------------------------------------------------------------------
# Rule parsing and validation
# ----------------------------------------------------------------------
class TestRuleValidation:
    def test_exactly_one_bound_required(self):
        with pytest.raises(SLOConfigError):
            SLORule(name="r", metric="m")
        with pytest.raises(SLOConfigError):
            SLORule(name="r", metric="m", max=1.0, min=0.5)
        assert _rule().bound == "max"
        assert _rule(max=None, min=0.5).bound == "min"

    def test_bad_fields_rejected(self):
        with pytest.raises(SLOConfigError):
            _rule(for_seconds=-1)
        with pytest.raises(SLOConfigError):
            _rule(hysteresis=1.0)
        with pytest.raises(SLOConfigError):
            _rule(hysteresis=-0.1)
        with pytest.raises(SLOConfigError):
            _rule(severity="fatal")
        with pytest.raises(SLOConfigError):
            SLORule(name="", metric="m", max=1.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SLOConfigError, match="unknown keys"):
            SLORule.from_dict({"name": "r", "metric": "m", "max": 1.0,
                               "treshold": 2.0})
        with pytest.raises(SLOConfigError):
            SLORule.from_dict(["not", "an", "object"])

    def test_from_dict_coerces_and_defaults(self):
        rule = SLORule.from_dict({"name": "r", "metric": "m", "max": "0.1",
                                  "for_seconds": "5"})
        assert rule.threshold == 0.1
        assert rule.for_seconds == 5.0
        assert rule.severity == "critical"

    def test_load_rules_list_and_wrapped_forms(self, tmp_path):
        doc = [{"name": "a", "metric": "m", "max": 1.0},
               {"name": "b", "metric": "m", "min": 0.5,
                "severity": "warning"}]
        plain = tmp_path / "rules.json"
        plain.write_text(json.dumps(doc), encoding="utf-8")
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"rules": doc}), encoding="utf-8")
        assert [r.name for r in load_rules(plain)] == ["a", "b"]
        assert [r.name for r in load_rules(wrapped)] == ["a", "b"]

    def test_load_rules_rejects_duplicates_and_non_lists(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(
            [{"name": "a", "metric": "m", "max": 1.0},
             {"name": "a", "metric": "n", "max": 2.0}]), encoding="utf-8")
        with pytest.raises(SLOConfigError, match="duplicate"):
            load_rules(path)
        path.write_text('{"no_rules": true}', encoding="utf-8")
        with pytest.raises(SLOConfigError):
            load_rules(path)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SLOConfigError):
            load_rules(path)


# ----------------------------------------------------------------------
# Evaluation semantics
# ----------------------------------------------------------------------
class TestSustainedFor:
    def test_breach_must_hold_for_duration(self):
        engine = SLOEngine([_rule(for_seconds=10.0)])
        assert engine.evaluate({"m": 2.0}, now=0.0)[0].state == PENDING
        assert engine.evaluate({"m": 2.0}, now=5.0)[0].state == PENDING
        status = engine.evaluate({"m": 2.0}, now=10.0)[0]
        assert status.state == FIRING
        assert status.breach_since == 0.0
        assert engine.ever_fired == {"r"}

    def test_recovery_resets_the_breach_window(self):
        engine = SLOEngine([_rule(for_seconds=10.0)])
        engine.evaluate({"m": 2.0}, now=0.0)
        engine.evaluate({"m": 0.5}, now=5.0)   # clears: window resets
        engine.evaluate({"m": 2.0}, now=8.0)   # new breach starts at 8
        assert engine.evaluate({"m": 2.0}, now=15.0)[0].state == PENDING
        assert engine.evaluate({"m": 2.0}, now=18.0)[0].state == FIRING

    def test_zero_for_seconds_fires_immediately(self):
        engine = SLOEngine([_rule()])
        assert engine.evaluate({"m": 1.5}, now=0.0)[0].state == FIRING

    def test_min_bound_breaches_below(self):
        engine = SLOEngine([_rule(max=None, min=1.0)])
        assert engine.evaluate({"m": 2.0}, now=0.0)[0].state == OK
        assert engine.evaluate({"m": 0.5}, now=1.0)[0].state == FIRING


class TestHysteresis:
    def test_firing_clears_only_past_the_band(self):
        engine = SLOEngine([_rule(max=1.0, hysteresis=0.2)])
        assert engine.evaluate({"m": 1.5}, now=0.0)[0].state == FIRING
        # Back under the threshold but inside the band: still firing.
        assert engine.evaluate({"m": 0.9}, now=1.0)[0].state == FIRING
        # At/below threshold * (1 - hysteresis) = 0.8: resolves.
        assert engine.evaluate({"m": 0.8}, now=2.0)[0].state == OK
        # ever_fired is sticky even after resolution (the exit gate).
        assert engine.breached() == ["r"]

    def test_min_bound_hysteresis(self):
        engine = SLOEngine([_rule(max=None, min=1.0, hysteresis=0.1)])
        engine.evaluate({"m": 0.5}, now=0.0)
        assert engine.evaluate({"m": 1.05}, now=1.0)[0].state == FIRING
        assert engine.evaluate({"m": 1.1}, now=2.0)[0].state == OK


class TestNoData:
    def test_absent_metric_is_no_data_not_ok(self):
        engine = SLOEngine([_rule()])
        status = engine.evaluate({}, now=0.0)[0]
        assert status.state == NO_DATA
        assert status.value is None
        assert not status.firing

    def test_losing_the_signal_keeps_a_firing_rule_firing(self):
        engine = SLOEngine([_rule()])
        assert engine.evaluate({"m": 2.0}, now=0.0)[0].state == FIRING
        assert engine.evaluate({}, now=1.0)[0].state == FIRING
        # The metric returning below threshold resolves it.
        assert engine.evaluate({"m": 0.5}, now=2.0)[0].state == OK

    def test_no_data_drops_a_pending_window(self):
        engine = SLOEngine([_rule(for_seconds=10.0)])
        engine.evaluate({"m": 2.0}, now=0.0)       # pending since 0
        engine.evaluate({}, now=5.0)               # window dropped
        engine.evaluate({"m": 2.0}, now=8.0)       # new window at 8
        assert engine.evaluate({"m": 2.0}, now=15.0)[0].state == PENDING


class TestSeverityGate:
    def test_breached_filters_by_severity_floor(self):
        rules = [_rule(name="warn", severity="warning"),
                 _rule(name="crit", severity="critical")]
        engine = SLOEngine(rules)
        engine.evaluate({"m": 2.0}, now=0.0)
        assert engine.breached("critical") == ["crit"]
        assert engine.breached("warning") == ["crit", "warn"]

    def test_status_message_mentions_rule_and_state(self):
        engine = SLOEngine([_rule(name="qrate", for_seconds=5.0)])
        status = engine.evaluate({"m": 2.0}, now=0.0)[0]
        text = status.message()
        assert "qrate" in text and "pending" in text
        assert "sustained-for=5s" in text
        absent = SLOEngine([_rule()]).evaluate({}, now=0.0)[0]
        assert "absent" in absent.message()

