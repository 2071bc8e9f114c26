"""Sec. 4.1's extended-training recovery claim.

The paper: benign-category cases with slight degradation "by and large
correspond to those where faults were injected late in the training
process.  For these cases, when we increased the training time by
10% / 17% ... the training/test accuracy differed by only less than
2% / 0.5% from that of the corresponding fault-free runs."

This bench injects a moderate fault late in training, measures the
accuracy deficit at the nominal budget, then extends training by ~10%
and ~17% and measures how much of the deficit the extra iterations
recover.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import directed_campaign, pinned_fault, traced

BUDGET = 60
INJECT_AT = 50          # "late in the training process"
#: Extra training time -> the paper's deficit ceiling after it.
EXTENSIONS = {0.10: 0.02, 0.17: 0.005}
#: The warm-up snapshot precedes the last three test points (39, 49,
#: 59), whose mean is the final test accuracy, so every experiment's
#: record holds them.
WARMUP = 30


def bench_recovery_extension(benchmark, tmp_path):
    fault = pinned_fault("2.conv1", "input_grad", INJECT_AT, device=1,
                         magnitude=1e10, elements=512, seed=4, coherent=True)
    rows = []
    deltas = {}
    for extension in (0.0, *EXTENSIONS):
        extra = int(round(BUDGET * extension))
        # One campaign per budget: its reference run is the clean run.
        campaign = directed_campaign("resnet_nobn", WARMUP, BUDGET + extra)
        result = campaign.run(faults=[fault], trace=True,
                              store=tmp_path / f"extra{extra}.jsonl")
        payload, = result.payloads
        delta = -payload["final_train_delta"]
        deltas[extension] = delta
        rows.append({
            "training budget": f"{BUDGET}+{extra} ({extension:.0%} extra)",
            "clean final acc": campaign.reference.final_train_accuracy(),
            "faulty final acc": float(np.mean(traced(result)[0]["acc"][-10:])),
            "train deficit": delta,
            "test deficit": -payload["final_test_delta"],
        })

    header("Sec. 4.1 — late faults recover with extended training "
           f"(fault at iteration {INJECT_AT} of {BUDGET})")
    table(rows)
    emit()
    claims = [paper_vs_measured(
        f"+{extension:.0%} training time brings the late-fault deficit "
        f"within {ceiling:.1%}",
        "+10% training time -> within 2% of fault-free; +17% -> within 0.5%",
        f"deficit at nominal budget {deltas[0.0]:+.3f}; "
        f"at +{extension:.0%} {deltas[extension]:+.3f}",
        band=(None, ceiling), value=deltas[extension],
    ) for extension, ceiling in EXTENSIONS.items()]
    write_artifact("recovery_extension", {"claims": claims, "seed": None,
                                          "config": campaign.config_dict()},
                   smoke=False)
    assert deltas[0.17] <= max(deltas[0.0], 0.02) + 0.05

    benchmark.pedantic(lambda: campaign.run_experiment(fault),
                       rounds=2, iterations=1)
