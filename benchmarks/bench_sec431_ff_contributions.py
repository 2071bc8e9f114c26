"""Sec. 4.3.1: contributions to unexpected outcomes by FF class.

The paper: global-control groups 1 and 3 plus local-control FFs (9.8% of
all FFs) contribute 55.7%-68.5% of unexpected outcomes; upper-two-
exponent-bit datapath FFs (5.5% of all FFs) contribute 31.9%-44.3%.

This bench reports the same stratification over the campaign results,
plus a *stratified* comparison of unexpected rates per class with equal
sample counts (the per-class rates expose the effect even when the
uniform-sample counts are small); a stratified fault's FF is drawn from
the FF population conditioned on its class.  The stratified faults are one fault
list through ``Campaign.run``, and each class's unexpected rate is
``campaign_report_dict``'s.  Every rate prints as estimate [99 % Wilson
interval] (n).  The verdicts judge the paper's numbers, each class's
share of the uniform campaigns' unexpected outcomes.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import uniform_meta
from repro.accelerator.ffs import FF_CLASSES
from repro.core.analysis import (
    campaign_report_dict,
    rates_with_intervals,
    render_rate,
)
from repro.core.faults import Campaign, HardwareFault
from repro.core.faults.hardware import FF_POPULATION
from repro.workloads import build_workload

#: Sec. 4.3.1's shares of all unexpected outcomes, per critical FF class.
PAPER_SHARES = {
    "critical_control": ("9.8% of FFs (global-control groups 1 + 3 and "
                         "local control) -> 55.7%-68.5% of unexpected",
                         (0.557, 0.685)),
    "upper_exponent": ("5.5% of FFs (upper two exponent bits) -> "
                       "31.9%-44.3% of unexpected", (0.319, 0.443)),
}


def bench_sec431_ff_contributions(benchmark, campaign_results):
    # Uniform-campaign stratification (the paper's accounting).
    rows = []
    for name, result in campaign_results.items():
        report = campaign_report_dict(result.payloads)
        for category in FF_CLASSES:
            rows.append({
                "workload": name,
                "ff class": category,
                "population share": render_rate(report, f"{category}_share"),
                "share of unexpected": render_rate(
                    report, f"{category}_unexpected_share"),
                "unexpected rate": render_rate(
                    report, f"{category}_unexpected_rate"),
            })
    header("Sec. 4.3.1 — unexpected-outcome contributions by FF class "
           "(uniform campaign)")
    table(rows)
    emit()

    # Stratified injection: equal counts per class on one workload so the
    # per-class unexpected rates are directly comparable.
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=10,
                        horizon=30, inject_window=8, test_every=10)
    rng = np.random.default_rng(9)
    per_class = 16

    def classed_fault(category: str) -> HardwareFault:
        """A sampled experiment whose FF is redrawn from the population
        until it falls in ``category``: the class's own FF mix."""
        fault = campaign.sample_experiment(rng)
        while fault.ff.ff_class != category:
            fault.ff = FF_POPULATION.sample(rng)
        return fault

    faults = [classed_fault(category) for category in FF_CLASSES
              for _ in range(per_class)]
    stratified = campaign.run(faults=faults)
    unexpected = campaign_report_dict(stratified.payloads)
    fired = rates_with_intervals({
        f"{category}_condition_fired_rate": (sum(
            max(r.condition_window.get("max_history", 0),
                r.condition_window.get("max_mvar", 0)) > 1e6
            for r in stratified.results if r.fault.ff.ff_class == category),
            per_class)
        for category in FF_CLASSES})
    rates = {**unexpected, **fired, "intervals": {
        **unexpected["intervals"], **fired["intervals"]}}
    emit("Stratified injection (equal counts per class, resnet):")
    table([{"ff class": category,
            "unexpected rate": render_rate(
                rates, f"{category}_unexpected_rate"),
            "condition-fired rate": render_rate(
                rates, f"{category}_condition_fired_rate")}
           for category in FF_CLASSES])
    emit()

    pooled = campaign_report_dict([p for result in campaign_results.values()
                                   for p in result.payloads])
    unexpected = [r.fault.ff.ff_class for result in campaign_results.values()
                  for r in result.results if r.report.is_unexpected]
    claims = [paper_vs_measured(
        f"{category} FFs carry the paper's share of unexpected outcomes",
        paper,
        f"{render_rate(pooled, f'{category}_unexpected_share')} of the "
        f"unexpected outcomes over the four workloads pooled",
        band=band, counts=(unexpected.count(category), len(unexpected)),
    ) for category, (paper, band) in PAPER_SHARES.items()]
    write_artifact("sec431_ff_contributions",
                   {"claims": claims, **uniform_meta()}, smoke=False)

    benchmark.pedantic(
        lambda: campaign.run_experiment(classed_fault("critical_control")),
        rounds=3, iterations=1,
    )
