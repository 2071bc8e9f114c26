"""An inference unit carries only the images its fault touched
(DESIGN.md decision 12), in one pass down the layers per lease that
drops an image once it is golden again (decision 18), and nothing about
its verdict or its logits may show it.

The oracle lives here, not in ``src/``: the whole-batch unit — arm the
fault on its site module, forward every input through every layer,
``argmax`` against the golden batch — which is what a unit was before.
With batch-invariant eval kernels (decision 16) the rows a unit carries
to the end have the oracle's logits byte for byte, not just its
verdict, and every row it drops has the golden logits in the oracle.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.analysis import (
    classify_inference_experiment,
    inference_report_dict,
    render_inference,
)
from repro.core.faults import InferenceCampaign
from repro.core.faults.campaign import INFERENCE_LEASE
from repro.core.faults.hardware import (
    FORWARD,
    OpSite,
    enumerate_sites,
    forward_by_layer,
    layer_chain,
    sample_forward_fault,
    site_layers,
)
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


def _layer_calls(campaign: InferenceCampaign, runner,
                 payloads: list[dict]) -> tuple[list[dict], list[tuple]]:
    """``runner(payloads)``'s results, and every top-level layer forward
    it made, in order: ``(layer index, input, output)``."""
    layers = layer_chain(campaign.model)
    calls: list[tuple[int, np.ndarray, np.ndarray]] = []
    for index, layer in enumerate(layers):
        def recording(x, index=index, forward=layer.forward):
            calls.append((index, x, forward(x)))
            return calls[-1][2]
        layer.forward = recording
    try:
        results = runner(payloads)
    finally:
        for layer in layers:
            del layer.forward
    return results, calls


def _unit_pass(campaign: InferenceCampaign, runner,
               payload: dict) -> list[tuple]:
    """The layer forwards of ``payload``'s unit in a lease of its own."""
    (result,), calls = _layer_calls(campaign, runner, [payload])
    assert _verdict(result) == _verdict(payload)
    return calls


def _same_logits(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte equality, except that any NaN equals any NaN: which payload
    survives a NaN + NaN depends on loop length (DESIGN.md decision 6),
    and an elementwise layer loops over the whole batch tensor."""
    if a.shape != b.shape:
        return False
    same = a.view(np.uint32) == b.view(np.uint32)
    return bool(np.all(same | (np.isnan(a) & np.isnan(b))))


def _rows_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


def _whole_batch_units(campaign: InferenceCampaign, payloads: list[dict],
                       batch: int) -> list[tuple]:
    """The oracle: ``(sdc, nonfinite, outcome, images flipped)`` per
    payload's fault, from one armed forward of the whole batch each.
    Along the way, each unit's pass (none for a fault that touched no
    image) must be the one the oracle predicts: from the layer holding
    its site, the touched images; after each layer, an image whose
    oracle input to the next layer equals the golden one leaves; the
    images left at the end have the oracle's logits, and every image
    that left has the golden logits in the oracle."""
    model = campaign.model
    inputs = campaign.spec.test_data.inputs[:batch]
    layer_of = site_layers(model)
    verdicts = []
    model.eval()
    try:
        campaign._golden_pass(inputs)
        runner = campaign._engine_runner()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            golden_out, golden_in = forward_by_layer(model, inputs)
            golden = np.argmax(golden_out, axis=-1)
            for payload in payloads:
                injector = FaultInjector(fault_from_dict(payload["fault"]))
                injector.arm(None, model)
                try:
                    out, oracle_in = forward_by_layer(model, inputs)
                finally:
                    injector.disarm()
                assert injector.fired
                assert len(injector.rows) == payload["rows_touched"]
                calls = _unit_pass(campaign, runner, payload)
                alive = list(injector.rows)
                expected = []
                for index in range(layer_of[injector.fault.site.module_name],
                                   len(golden_in)):
                    if not alive:
                        break
                    expected.append((index, len(alive)))
                    if index + 1 < len(golden_in):
                        alive = [i for i in alive if not _rows_equal(
                            oracle_in[index + 1][i], golden_in[index + 1][i])]
                assert [(index, len(x)) for index, x, _y in calls] == expected
                if alive:
                    assert _same_logits(calls[-1][2], out[alive])
                for i in set(injector.rows) - set(alive):
                    assert _same_logits(out[i], golden_out[i])
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


def test_a_unit_makes_one_pass(resnet_campaign, tmp_path):
    """No forward for a fault that rewrote no byte; otherwise one pass
    from the layer holding its site, each layer at most once, entered by
    the unit's rows and only them — every time, with no reference
    forward beside it."""
    payloads = _payloads(resnet_campaign, tmp_path / "s.jsonl", 300,
                         seed=7, batch=32)
    model = resnet_campaign.model
    layer_of = site_layers(model)
    model.eval()
    try:
        resnet_campaign._golden_pass(resnet_campaign.spec.test_data.inputs[:32])
        runner = resnet_campaign._engine_runner()

        def rows_per_layer(payload: dict) -> list[tuple[int, int]]:
            return [(index, len(x)) for index, x, _y in
                    _unit_pass(resnet_campaign, runner, payload)]

        untouched = next(p for p in payloads if p["rows_touched"] == 0)
        assert rows_per_layer(untouched) == []
        for payload in ([p for p in payloads if p["rows_touched"] == 1][:5]
                        + [p for p in payloads if p["rows_touched"] >= 2][:5]):
            calls = rows_per_layer(payload)
            start = layer_of[payload["fault"]["site"]["module_name"]]
            assert calls[0] == (start, payload["rows_touched"])
            assert [index for index, _n in calls] == \
                list(range(start, start + len(calls)))
            assert [n for _i, n in calls] == sorted(
                (n for _i, n in calls), reverse=True)
            assert rows_per_layer(payload) == calls
    finally:
        model.train()


def test_a_lease_makes_one_pass(resnet_campaign, tmp_path):
    """A lease's units share one pass: each top-level layer runs at most
    once, a unit's rows join at the layer holding its site, and rows
    leave once golden again; each unit's verdict, and the logits of the
    rows it carries to the end, are the ones it gets in a lease of its
    own."""
    payloads = _payloads(resnet_campaign, tmp_path / "s.jsonl",
                         INFERENCE_LEASE, seed=11, batch=32)
    model = resnet_campaign.model
    layer_of = site_layers(model)
    model.eval()
    try:
        resnet_campaign._golden_pass(resnet_campaign.spec.test_data.inputs[:32])
        runner = resnet_campaign._engine_runner()
        results, calls = _layer_calls(resnet_campaign, runner, payloads)
        assert [_verdict(r) for r in results] == [_verdict(p) for p in payloads]
        touched = [p for p in payloads if p["rows_touched"]]
        start_of = [layer_of[p["fault"]["site"]["module_name"]] for p in touched]
        indices = [index for index, _x, _y in calls]
        assert indices == sorted(set(indices))
        assert indices[0] == min(start_of) and len(touched) >= 4 * len(calls)
        joined = sum(p["rows_touched"] for p in payloads)
        # Rows left the pass before the last layer.
        assert indices[-1] == len(layer_chain(model)) - 1
        assert len(calls[-1][2]) < joined
        # The last layer's rows are each unit's carried rows, units in the
        # order they joined.
        order = sorted(range(len(touched)), key=lambda u: start_of[u])
        alone = [_unit_pass(resnet_campaign, runner, touched[u]) for u in order]
        carried = [unit[-1][2] for unit in alone
                   if unit and unit[-1][0] == indices[-1]]
        assert _same_logits(calls[-1][2], np.concatenate(carried))
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


def test_a_fault_list_gives_the_payloads_of_its_sample(resnet_campaign,
                                                      tmp_path):
    """``run(faults=...)`` runs exactly those faults: the sample of
    ``run(n, seed)`` given as a list gives its payloads byte for byte,
    under a header that names no seed."""
    rng = np.random.default_rng(13)
    faults = [sample_forward_fault(resnet_campaign.model, rng)
              for _ in range(150)]
    sampled = _payloads(resnet_campaign, tmp_path / "a.jsonl", 150, seed=13,
                        batch=32)
    report = resnet_campaign.run(faults=faults, batch=32,
                                 store=tmp_path / "b.jsonl")
    with ResultStore(tmp_path / "b.jsonl", resume=True) as done:
        listed = sorted(done.completed.values(), key=lambda p: p["index"])
        assert done.meta["seed"] is None
        assert done.meta["num_experiments"] == 150

    def masked(payloads: list[dict]) -> str:
        return json.dumps([{k: v for k, v in p.items() if k != "ts"}
                           for p in payloads], sort_keys=True)

    assert masked(listed) == masked(sampled)
    assert report["num_experiments"] == 150


@pytest.mark.parametrize("change", [
    {"site": OpSite("1.conv1", "weight_grad")}, {"iteration": 1},
    {"device": 1}])
def test_a_fault_list_takes_forward_faults_only(resnet_campaign, change):
    rng = np.random.default_rng(1)
    faults = [sample_forward_fault(resnet_campaign.model, rng)
              for _ in range(3)]
    faults[2] = replace(faults[2], **change)
    with pytest.raises(ValueError, match="fault 2 is a"):
        resnet_campaign.run(faults=faults)


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
