"""Table 5: resilience properties of inference vs. training.

Applies the same fault population to (a) pure inference on a trained
model and (b) the training process, and contrasts the outcome profiles:

* inference: a control fault that flips many outputs usually changes the
  prediction (SDC) — there is no recovery mechanism;
* training: the same faults are mostly absorbed (Observation 1), and the
  INFs/NaNs class — absent in inference studies per Table 5 — appears.
"""

from __future__ import annotations

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import uniform_meta
from repro.core.analysis import (
    campaign_report_dict,
    rates_with_intervals,
    render_inference,
    render_rate,
)
from repro.core.faults import InferenceCampaign
from repro.workloads import build_workload

#: Inference faults.  A unit forwards only the images its fault touched
#: (DESIGN.md decision 12), so 10^4 of them take about ten seconds.
EXPERIMENTS = 10_000


def bench_table5_inference_vs_training(benchmark, campaign_results):
    spec = build_workload("resnet", size="tiny", seed=0)
    inference = InferenceCampaign(spec, seed=0, num_devices=2)
    inference_stats = inference.run(EXPERIMENTS, seed=11)

    training = campaign_report_dict(campaign_results["resnet"].payloads)
    training_rate = "unexpected rate " + render_rate(training,
                                                     "unexpected_rate")
    n = training["num_experiments"]
    inf_nan = sum(count for outcome, count in training["breakdown"].items()
                  if "inf_nan" in outcome)
    inf_nan_rate = rates_with_intervals({"inf_nan_rate": (inf_nan, n)})

    header("Table 5 — inference vs. training resilience "
           f"({EXPERIMENTS} inference faults, {n} training faults; resnet)")
    table([
        {"property": "fault changes the outcome",
         "inference": "SDC rate "
                      + render_rate(inference_stats, "sdc_rate"),
         "training": training_rate},
        {"property": "non-finite values observed",
         "inference": render_rate(inference_stats, "nonfinite_rate")
                      + " of runs",
         "training": render_rate(inf_nan_rate, "inf_nan_rate")
                     + " of runs reach INFs/NaNs"},
    ])
    emit()
    emit(render_inference(inference_stats))
    emit()
    # SDC takes precedence in the breakdown: its count is the SDC rate's.
    sdc = (inference_stats["breakdown"]["sdc"],
           inference_stats["num_experiments"])
    unexpected = sum(r.report.is_unexpected
                     for r in campaign_results["resnet"].results)
    claim = paper_vs_measured(
        "training absorbs faults that corrupt inference",
        "many inference conclusions do not transfer; training recovers "
        "unless history state is corrupted (Table 5)",
        f"inference SDC rate {render_rate(inference_stats, 'sdc_rate')} "
        f"minus training {training_rate}",
        band=(0, None), counts=(sdc, (unexpected, n)),
    )
    write_artifact("table5_inference_vs_training", {
        "claims": [claim], **uniform_meta(["resnet"]),
        "inference": {"config": inference.session.config, "seed": 11},
    }, smoke=False)
    emit()
    emit("Table 5 rows reproduced in other benches: normalization layers")
    emit("both mask (Ranger false-negative test) and exacerbate (mvar")
    emit("condition) training faults; INFs/NaNs are a training-specific")
    emit("outcome class (bench_table3); early-layer correlation holds only")
    emit("for SlowDegrade-path faults (bench_fig2's site choices).")

    benchmark.pedantic(lambda: inference.run(10, seed=12), rounds=3, iterations=1)
