"""Table 4: necessary conditions for short-term/latent unexpected outcomes.

Over the four uniform campaigns (the shared ``campaign_results``
fixture, each with a store and a merged trace): the maximum |optimizer
history| and |mvar| within two iterations of the fault for every
unexpected outcome, how many benign outcomes reach the same magnitudes,
and the trace's condition tallies per outcome.

A directed group-1 battery then checks the paper's timing claim.  It is
one fault list through ``Campaign.run`` with the flight recorder on, and
the verdict is read from its merged trace: every backward-pass
(``weight_grad``) fault has a gradient-history onset and every
forward-pass fault an mvar onset, each within [t, t+2].

The paper's conditions are *necessary*, not sufficient: a benign
outcome may reach them too, when training recovers from the fault.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import Campaign, HardwareFault, OpSite
from repro.observe import read_trace
from repro.observe.analysis import condition_tallies, propagation_summaries
from repro.workloads import build_workload

PAPER_RANGES = {
    "slow_degrade": ("gradient history", "3.6e9 - 1.1e19"),
    "sharp_slow_degrade": ("gradient history", "2.7e8 - 1.2e19"),
    "sharp_degrade": ("mvar", "6.5e16 - 1.2e38"),
    "low_test_accuracy": ("mvar", "7.3e17 - 7.1e37"),
    "short_term_inf_nan": ("mvar", "2.9e38 - 3.0e38"),
}

#: The condition a fault in each pass fires (Table 4, Fig. 4).
ONSET_CONDITION = {"weight_grad": "gradient_history", "forward": "mvar"}


def bench_table4_conditions(benchmark, campaign_results, tmp_path):
    rows, tallies = [], []
    benign = {"max_history": 0.0, "max_mvar": 0.0}
    benign_count = benign_large = 0
    for name, result in campaign_results.items():
        for experiment in result.results:
            window = experiment.condition_window
            if experiment.report.is_unexpected:
                rows.append({
                    "workload": name,
                    "outcome": experiment.outcome.value,
                    "max|history| (t..t+2)": window.get("max_history", 0.0),
                    "max|mvar| (t..t+2)": window.get("max_mvar", 0.0),
                })
                continue
            values = [window.get(key, 0.0) for key in benign]
            benign_count += 1
            benign_large += any(not np.isfinite(v) or v > 1e6
                                for v in values)
            for key, v in zip(benign, values):
                benign[key] = max(benign[key], v)
        trace = read_trace(result.engine_report.trace_path)
        for outcome, tally in condition_tallies(trace)["by_outcome"].items():
            tallies.append({"workload": name, "outcome": outcome, **tally})

    header("Table 4 — necessary-condition magnitudes within 2 iterations "
           "of the fault (campaign experiments with unexpected outcomes)")
    if rows:
        table(rows, floatfmt="{:.3g}")
    else:
        emit("(no unexpected outcomes in this campaign sample — see Fig. 3")
        emit(" bench: tiny BN-protected models mask nearly all faults)")
    emit()
    emit(f"benign-outcome condition ceilings: "
         f"max|history| = {benign['max_history']:.3g}, "
         f"max|mvar| = {benign['max_mvar']:.3g}; {benign_large} of "
         f"{benign_count} benign experiments exceed 1e6 or are "
         f"non-finite (the conditions are necessary, not sufficient)")
    emit()
    emit("Condition onsets per outcome (merged campaign traces):")
    table(tallies)
    emit()
    emit("Paper's ranges for comparison:")
    table([
        {"outcome": k, "condition": v[0], "paper range": v[1]}
        for k, v in PAPER_RANGES.items()
    ])

    # Directed battery: group-1 faults on one critical site, whose
    # conditions the campaigns' uniform sampling can miss at bench scale.
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=10,
                        horizon=25, inject_window=5, test_every=10)
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    faults = [HardwareFault(ff=ff, site=OpSite("1.conv1", kind),
                            iteration=12, device=0, seed=seed)
              for kind in ONSET_CONDITION for seed in range(6)]
    directed = campaign.run(faults=faults, store=tmp_path / "directed.jsonl",
                            trace=True)
    summaries = propagation_summaries(
        read_trace(directed.engine_report.trace_path)).values()
    battery, on_time = [], dict.fromkeys(ONSET_CONDITION, 0)
    for summary in (s for s in summaries if s["fault"] is not None):
        kind = summary["fault"]["kind"]
        condition = ONSET_CONDITION[kind]
        onset = next((o["latency_from_fault"] for o in summary["onsets"]
                      if o["condition"] == condition), None)
        on_time[kind] += onset is not None and onset <= 2
        battery.append({
            "site kind": kind,
            "outcome": summary["outcome"],
            "condition": condition,
            "onset latency": onset,
            "max|history| (t..t+2)":
                summary["condition_window"]["max_history"],
            "max|mvar| (t..t+2)": summary["condition_window"]["max_mvar"],
        })
    emit()
    emit("Directed group-1 injections (condition onset per pass, from the "
         "merged trace):")
    table(battery, floatfmt="{:.3g}")

    claim = paper_vs_measured(
        "conditions observed within 2 iterations of the fault",
        "iter. t / iter. t+1 (Table 4 column 'when conditions observed')",
        f"{on_time['weight_grad']}/6 backward faults fired |history|, "
        f"{on_time['forward']}/6 forward faults fired |mvar| in [t, t+2]",
        band=(1, 1), counts=(sum(on_time.values()), len(faults)),
    )
    write_artifact("table4_conditions", {"claims": [claim], "seed": None,
                                         "config": campaign.config_dict()},
                   smoke=False)
    assert sum(on_time.values()) == len(faults)

    benchmark.pedantic(lambda: campaign.run_experiment(
        HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                      iteration=12, device=0, seed=3)
    ), rounds=3, iterations=1)
