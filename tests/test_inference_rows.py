"""An inference unit forwards only the images its fault touched
(DESIGN.md decision 12), and nothing about its verdict or its logits
may show it.

The oracle lives here, not in ``src/``: the whole-batch unit — arm the
fault on its site module, forward every input through every layer,
``argmax`` against the golden batch — which is what a unit was before.
With batch-invariant eval kernels (decision 16) the unit's logits are
the oracle's rows byte for byte, not just its verdict.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.analysis import (
    classify_inference_experiment,
    inference_report_dict,
    render_inference,
)
from repro.core.faults import InferenceCampaign
from repro.core.faults.campaign import INFERENCE_LEASE
from repro.core.faults.hardware import FORWARD, enumerate_sites, site_layers
from repro.core.faults.injector import FaultInjector
from repro.core.faults.serialization import fault_from_dict
from repro.engine import ResultStore
from repro.workloads import build_workload, workload_names


def _campaign(workload: str = "resnet") -> InferenceCampaign:
    return InferenceCampaign(build_workload(workload, size="tiny"),
                             train_iterations=4, num_devices=2)


@pytest.fixture(scope="module")
def resnet_campaign() -> InferenceCampaign:
    return _campaign()


def _payloads(campaign: InferenceCampaign, path, n: int, seed: int,
              batch: int, **engine) -> list[dict]:
    campaign.run(n, seed=seed, batch=batch, store=path, **engine)
    with ResultStore(path, resume=True) as done:
        return sorted(done.completed.values(), key=lambda p: p["index"])


def _unit_forwards(campaign: InferenceCampaign, runner,
                   payload: dict) -> list[np.ndarray]:
    """The outputs of every model forward ``runner`` makes for one unit."""
    model = campaign.model
    forward = model.forward
    outputs: list[np.ndarray] = []

    def recording(x, start=0):
        outputs.append(forward(x, start))
        return outputs[-1]

    model.forward = recording
    try:
        (result,) = runner([payload])
    finally:
        del model.forward
    assert _verdict(result) == _verdict(payload)
    return outputs


def _same_logits(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte equality, except that any NaN equals any NaN: which payload
    survives a NaN + NaN depends on loop length (DESIGN.md decision 6),
    and an elementwise layer loops over the whole batch tensor."""
    if a.shape != b.shape:
        return False
    same = a.view(np.uint32) == b.view(np.uint32)
    return bool(np.all(same | (np.isnan(a) & np.isnan(b))))


def _whole_batch_units(campaign: InferenceCampaign, payloads: list[dict],
                       batch: int) -> list[tuple]:
    """The oracle: ``(sdc, nonfinite, outcome, images flipped)`` per
    payload's fault, from one armed forward of the whole batch each.
    Along the way, each unit's one forward (none for a fault that
    touched no image) must give the logits of the oracle's touched
    rows."""
    model = campaign.model
    inputs = campaign.spec.test_data.inputs[:batch]
    verdicts = []
    model.eval()
    try:
        campaign._golden_pass(inputs)
        runner = campaign._engine_runner()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            golden = np.argmax(model.forward(inputs), axis=-1)
            for payload in payloads:
                injector = FaultInjector(fault_from_dict(payload["fault"]))
                injector.arm(None, model)
                try:
                    out = model.forward(inputs)
                finally:
                    injector.disarm()
                assert injector.fired
                assert len(injector.rows) == payload["rows_touched"]
                unit = _unit_forwards(campaign, runner, payload)
                if injector.rows.size:
                    assert len(unit) == 1
                    assert _same_logits(unit[0], out[injector.rows])
                else:
                    assert unit == []
                flipped = np.argmax(np.nan_to_num(out, nan=-np.inf),
                                    axis=-1) != golden
                sdc = bool(flipped.any())
                nonfinite = not bool(np.all(np.isfinite(out)))
                verdicts.append((
                    sdc, nonfinite,
                    classify_inference_experiment(
                        sdc=sdc, nonfinite=nonfinite).value,
                    int(flipped.reshape(batch, -1).any(axis=1).sum())))
    finally:
        model.train()
    return verdicts


def _verdict(payload: dict) -> tuple:
    return payload["sdc"], payload["nonfinite"], payload["outcome"]


def test_rows_unit_equals_whole_batch_unit_resnet(resnet_campaign, tmp_path):
    payloads = _payloads(resnet_campaign, tmp_path / "s.jsonl", 2000,
                         seed=7, batch=32)
    oracle = _whole_batch_units(resnet_campaign, payloads, 32)
    assert [_verdict(p) for p in payloads] == [v[:3] for v in oracle]

    outcomes = Counter(p["outcome"] for p in payloads)
    assert outcomes["sdc"] >= 20 and outcomes["masked"] >= 1000
    touched = Counter(p["rows_touched"] for p in payloads)
    assert touched[0] >= 50 and touched[1] >= 1000
    # A fault that left every image alone at its site cannot be seen.
    assert all(p["outcome"] == "masked" for p in payloads
               if p["rows_touched"] == 0)
    # A fault across several images is judged on all of them: some unit
    # flipped more than one image's prediction, and no unit flipped more
    # images than it forwarded.
    wide = [(p, v) for p, v in zip(payloads, oracle)
            if p["rows_touched"] >= 2]
    assert len(wide) >= 20
    assert max(v[3] for _p, v in wide) >= 2
    assert all(v[3] <= p["rows_touched"] for p, v in zip(payloads, oracle))
    assert all(p["num_faulty_elements"] >= 1 for p in payloads
               if p["rows_touched"])


@pytest.mark.slow
@pytest.mark.parametrize("workload", workload_names())
def test_rows_unit_equals_whole_batch_unit_every_workload(workload, tmp_path):
    campaign = _campaign(workload)
    payloads = _payloads(campaign, tmp_path / "s.jsonl", 300, seed=5,
                         batch=16)
    oracle = _whole_batch_units(campaign, payloads, 16)
    assert [_verdict(p) for p in payloads] == [v[:3] for v in oracle]
    assert any(p["rows_touched"] for p in payloads)


def test_forwards_per_unit(resnet_campaign, tmp_path):
    """No forward for a fault that rewrote no byte; otherwise exactly one,
    of the unit's rows and only them — every time, with no reference
    forward beside it."""
    payloads = _payloads(resnet_campaign, tmp_path / "s.jsonl", 300,
                         seed=7, batch=32)
    model = resnet_campaign.model
    model.eval()
    try:
        resnet_campaign._golden_pass(resnet_campaign.spec.test_data.inputs[:32])
        runner = resnet_campaign._engine_runner()

        def forwarded(payload: dict) -> list[int]:
            return [len(out) for out in
                    _unit_forwards(resnet_campaign, runner, payload)]

        untouched = next(p for p in payloads if p["rows_touched"] == 0)
        assert forwarded(untouched) == []
        for payload in ([p for p in payloads if p["rows_touched"] == 1][:5]
                        + [p for p in payloads if p["rows_touched"] >= 2][:5]):
            rows = payload["rows_touched"]
            assert forwarded(payload) == [rows]
            assert forwarded(payload) == [rows]
    finally:
        model.train()


def test_a_lease_forwards_once_per_start_layer(resnet_campaign, tmp_path):
    """A lease's units share their forwards: one per top-level layer some
    touched unit starts at, over all those units' rows; each unit's
    verdict, and its rows' logits, are the ones it gets in a lease of its
    own."""
    payloads = _payloads(resnet_campaign, tmp_path / "s.jsonl",
                         INFERENCE_LEASE, seed=11, batch=32)
    model = resnet_campaign.model
    layer_of = site_layers(model)
    forward = model.forward
    calls: list[tuple[int, np.ndarray]] = []

    def recording(x, start=0):
        calls.append((start, forward(x, start)))
        return calls[-1][1]

    model.eval()
    try:
        resnet_campaign._golden_pass(resnet_campaign.spec.test_data.inputs[:32])
        runner = resnet_campaign._engine_runner()
        model.forward = recording
        try:
            results = runner(payloads)
        finally:
            del model.forward
        assert [_verdict(r) for r in results] == [_verdict(p) for p in payloads]
        touched = [p for p in payloads if p["rows_touched"]]
        start_of = [layer_of[p["fault"]["site"]["module_name"]] for p in touched]
        assert sorted(start for start, _out in calls) == sorted(set(start_of))
        assert len(calls) >= 3 and len(touched) >= 4 * len(calls)
        assert sum(len(out) for _start, out in calls) == \
            sum(p["rows_touched"] for p in payloads)
        stacked = dict(calls)
        used = dict.fromkeys(stacked, 0)
        for payload, start in zip(touched, start_of):
            rows = stacked[start][used[start]:used[start] + payload["rows_touched"]]
            used[start] += payload["rows_touched"]
            (alone,) = _unit_forwards(resnet_campaign, runner, payload)
            assert _same_logits(rows, alone)
    finally:
        model.train()


def test_one_store_fsync_per_lease(resnet_campaign, tmp_path, fsyncs):
    n = 3 * INFERENCE_LEASE + 1
    assert len(_payloads(resnet_campaign, tmp_path / "s.jsonl", n, seed=2,
                         batch=32)) == n
    assert len(fsyncs) == 1 + 4  # the header, then one per lease


def test_parallel_workers_give_the_same_payloads(resnet_campaign, tmp_path):
    serial = _payloads(resnet_campaign, tmp_path / "p1.jsonl", 200, seed=3,
                       batch=32)
    forked = _payloads(resnet_campaign, tmp_path / "p2.jsonl", 200, seed=3,
                       batch=32, parallel=2)
    assert forked == serial


@pytest.mark.parametrize("workload", workload_names())
def test_site_hook_fires_once_per_forward_with_batch_on_axis_0(workload):
    """What slicing rows at the site rests on."""
    spec = build_workload(workload, size="tiny")
    model = spec.build_model(0)
    modules = dict(model.named_modules())
    seen: list[tuple] = []
    sites = [site.module_name for site in enumerate_sites(model, (FORWARD,))]
    for name in sites:
        modules[name].set_fault_hook(
            FORWARD, lambda tensor, info, name=name:
            seen.append((name, len(tensor))) or tensor)
    model.eval()
    for batch in (5, 1):
        del seen[:]
        model.forward(spec.test_data.inputs[:batch])
        assert sorted(seen) == sorted((name, batch) for name in sites)


class TestInferenceReport:
    PAYLOADS = ([{"sdc": True, "nonfinite": False, "outcome": "sdc",
                  "rows_touched": 1, "num_faulty_elements": 1}] * 5
                + [{"sdc": False, "nonfinite": False, "outcome": "masked",
                    "rows_touched": 1, "num_faulty_elements": 1}] * 85
                + [{"sdc": False, "nonfinite": False, "outcome": "masked",
                    "rows_touched": 0, "num_faulty_elements": 4}] * 10)

    def test_every_rate_has_n_and_a_wilson_interval(self):
        report = inference_report_dict(self.PAYLOADS)
        assert report["sdc_rate"] == 0.05
        assert report["masked_rate"] == 0.95
        assert report["masked_at_site_rate"] == 0.10
        for name in ("sdc_rate", "nonfinite_rate", "masked_rate",
                     "masked_at_site_rate"):
            interval = report["intervals"][name]
            assert interval["n"] == 100 and interval["confidence"] == 0.99
            assert interval["low"] <= report[name] <= interval["high"]
        assert 0.01 < report["intervals"]["sdc_rate"]["low"] < 0.05
        assert 0.05 < report["intervals"]["sdc_rate"]["high"] < 0.15
        text = render_inference(report)
        assert "sdc_rate             5.00% [1.6" in text
        assert "masked_at_site_rate  10.00% [" in text and "(n=100)" in text
        assert "!! 100 experiments < 4147" in text
        assert "!!" not in render_inference(
            inference_report_dict(self.PAYLOADS * 42))

    def test_records_without_the_new_fields_still_read(self):
        old = [{k: v for k, v in p.items()
                if k not in ("rows_touched", "num_faulty_elements", "outcome")}
               for p in self.PAYLOADS]
        report = inference_report_dict(old)
        assert report["sdc_rate"] == 0.05 and report["masked_rate"] == 0.95
        assert report["masked_at_site_rate"] is None
        assert "masked_at_site_rate" not in report["intervals"]
        assert "masked_at_site_rate" not in render_inference(report)
        # A merged store: the share is over the records that say.
        mixed = inference_report_dict(old + self.PAYLOADS)
        assert mixed["masked_at_site_rate"] == 0.10
        assert mixed["intervals"]["masked_at_site_rate"]["n"] == 100
        assert mixed["intervals"]["sdc_rate"]["n"] == 200

    def test_empty_store(self):
        report = inference_report_dict([])
        assert report["num_experiments"] == 0 and report["intervals"] == {}
        assert report["sdc_rate"] is None
        assert render_inference(report).startswith("outcome breakdown")
