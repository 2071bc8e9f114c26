"""Fig. 3: percentage breakdown of training outcomes per workload.

Runs the statistical FI campaign (uniform FF sampling over the inventory,
random op sites/iterations/devices) on the four ResNet configurations and
reports the outcome fractions normalized to the total experiment count,
and the unexpected rate as estimate [99 % Wilson interval] (n) — the same
normalization as the paper's Fig. 3.

Shape expectations at our scale: the large majority of faults are benign
(the paper: 82.3%-90.3%), and unexpected outcomes concentrate in the
critical FF classes.  With tens (not hundreds of thousands) of
experiments per workload the intervals are wide; the pooled benign rate
is judged against the paper's benign band.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import CAMPAIGN_EXPERIMENTS, uniform_meta
from repro.core.analysis import Outcome, campaign_report_dict, render_rate
from repro.core.faults import Campaign
from repro.workloads import build_workload

def bench_fig3_breakdown(benchmark, campaign_results):
    rows = []
    for name, result in campaign_results.items():
        report = campaign_report_dict(result.payloads)
        row = {"workload": name, "experiments": report["num_experiments"]}
        row.update({outcome: count / report["num_experiments"]
                    for outcome, count in report["breakdown"].items()
                    if count})
        row["unexpected"] = render_rate(report, "unexpected_rate")
        rows.append(row)

    columns = sorted({c for row in rows for c in row} - {"workload"},
                     key=lambda c: (c != "experiments", c))
    header(f"Fig. 3 — outcome breakdown per workload "
           f"({CAMPAIGN_EXPERIMENTS} uniform-FF experiments each)")
    table(rows, columns=["workload"] + columns)
    emit()

    payloads = [p for result in campaign_results.values()
                for p in result.payloads]
    benign = sum(not Outcome(p["outcome"]).is_unexpected for p in payloads)
    pooled = campaign_report_dict(payloads)
    claim = paper_vs_measured(
        "the large majority of faults are benign",
        "82.3%-90.3% benign across workloads (>2.9M experiments)",
        f"unexpected {render_rate(pooled, 'unexpected_rate')} over the "
        f"four workloads pooled",
        band=(0.823, 0.903), counts=(benign, len(payloads)),
    )
    write_artifact("fig3_breakdown", {"claims": [claim], **uniform_meta()},
                   smoke=False)
    emit()
    emit("Note: at tiny model scale the masking/recovery effects the paper")
    emit("describes (Observation 1 and 3) are stronger — small BN-protected")
    emit("networks recover from almost all single-site faults, so the")
    emit("benign fraction sits above the paper's 82.3%-90.3% band.")

    # Benchmark one full FI experiment (restore + inject + train +
    # classify) through the campaign engine.
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=8,
                        horizon=16, inject_window=4, test_every=8)
    campaign.prepare()
    rng = np.random.default_rng(5)

    def one_experiment():
        campaign.run(faults=[campaign.sample_experiment(rng)])

    benchmark.pedantic(one_experiment, rounds=3, iterations=1)
