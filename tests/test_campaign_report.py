"""The training summary over store payloads (``campaign_report_dict``):
every rate with its Wilson interval and n, and nothing for no data."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.ffs import FF_CLASSES, FFDescriptor
from repro.cli import main
from repro.core.analysis import campaign_report_dict, render_campaign
from repro.core.analysis.classify import Outcome
from repro.engine import ResultStore

#: Outcomes whose Table 4 range is read from ``max_history``.
HISTORY_OUTCOMES = {Outcome.SLOW_DEGRADE, Outcome.SHARP_SLOW_DEGRADE}


def _payload(outcome: Outcome, ff: dict, window: dict | None = None) -> dict:
    return {"outcome": outcome.value, "fault": {"ff": ff},
            "condition_window": window or {}}


def _ff(category="datapath", group=None, bit=None) -> dict:
    return {"category": category, "group": group, "bit": bit,
            "has_feedback": False}


def test_empty_store_reports_no_rate(tmp_path, capsys):
    """A campaign store with 0 experiments has no data for any rate, so
    it prints no interval (it used to print [0.00%, 86.90%])."""
    path = tmp_path / "empty.jsonl"
    ResultStore(path, kind="campaign", meta={"workload": "resnet"}).close()
    assert main(["report", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["num_experiments"] == 0
    assert report["intervals"] == {}
    assert report["unexpected_rate"] is None
    assert all(report[f"{name}_share"] is None for name in FF_CLASSES)
    assert main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "# campaign: resnet (0 experiments)" in text
    assert "[" not in text and "rates (" not in text


def test_no_unexpected_outcome_has_no_share_of_it():
    """Shares of zero unexpected outcomes, and the rate of a class with
    no members, are undefined: None, no interval, not printed."""
    report = campaign_report_dict(
        [_payload(Outcome.MASKED_IMPROVED, _ff(bit=3))] * 3
        + [_payload(Outcome.MASKED_SLIGHT_DEGRADE,
                    _ff("global_control", group=1))])
    assert report["unexpected_rate"] == 0.0
    for name in FF_CLASSES:
        assert report[f"{name}_unexpected_share"] is None
        assert f"{name}_unexpected_share" not in report["intervals"]
    assert report["upper_exponent_unexpected_rate"] is None
    assert report["upper_exponent_share"] == 0.0
    assert report["critical_control_share"] == 0.25
    assert report["intervals"]["critical_control_unexpected_rate"]["n"] == 1
    text = render_campaign(report, "resnet")
    assert "unexpected_share" not in text
    assert "upper_exponent_unexpected_rate" not in text
    assert "upper_exponent_share" in text


_FFS = st.one_of(
    st.builds(_ff, st.just("datapath"), st.none(), st.integers(0, 31)),
    st.builds(_ff, st.just("local_control")),
    st.builds(_ff, st.just("global_control"), st.integers(1, 10)))
_VALUES = st.one_of(st.floats(-1.0, 1e38), st.sampled_from(["inf", "-inf"]))
_PAYLOADS = st.lists(st.builds(
    _payload, st.sampled_from(list(Outcome)), _FFS,
    st.fixed_dictionaries({"max_history": _VALUES, "max_mvar": _VALUES})),
    max_size=40)


@given(_PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_every_rate_has_its_interval_and_n(payloads):
    report = campaign_report_dict(payloads)
    outcomes = [Outcome(p["outcome"]) for p in payloads]
    unexpected = [o.is_unexpected for o in outcomes]
    classes = [FFDescriptor(**p["fault"]["ff"]).ff_class for p in payloads]
    n, hits = len(payloads), sum(unexpected)
    trials = {"unexpected_rate": n}
    for name in FF_CLASSES:
        members = classes.count(name)
        trials.update({f"{name}_share": n, f"{name}_unexpected_share": hits,
                       f"{name}_unexpected_rate": members})
    assert report["num_experiments"] == n
    assert sum(report["breakdown"].values()) == n
    for name, denominator in trials.items():
        if not denominator:
            assert report[name] is None and name not in report["intervals"]
            continue
        interval = report["intervals"][name]
        assert interval["n"] == denominator
        assert interval["low"] <= report[name] <= interval["high"]
    for kind, total in (("share", n), ("unexpected_share", hits)):
        if total:
            assert math.isclose(sum(report[f"{name}_{kind}"]
                                    for name in FF_CLASSES), 1.0)
    for outcome, payload in zip(outcomes, payloads):
        if not (outcome.is_latent or outcome == Outcome.SHORT_TERM_INF_NAN):
            continue
        field = ("max_history" if outcome in HISTORY_OUTCOMES
                 else "max_mvar")
        if payload["condition_window"][field] == "inf":
            assert report["condition_ranges"][outcome.value][1] == math.inf
