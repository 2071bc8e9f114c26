"""Fig. 5: the three phases of SlowDegrade / SharpSlowDegrade.

Reproduces the convergence-trend decomposition: a backward-pass fault
corrupts Adam's history, and relative to the fault-free reference run the
accuracy deficit (1) grows while the faulty first moment dominates
updates, (2) plateaus while the huge second moment suppresses learning,
and (3) shrinks as the corrupted state loses its grip (Phase 3,
"training/test accuracy may recover").

The analytic model (:func:`expected_stagnation_iterations`) extrapolates
the Phase-2 length to the paper's datacenter example: decay 0.9999 with a
faulty history value of 1e19 crosses back to normal only after ~4e5
iterations — "may require millions of iterations to fully recover".
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import directed_campaign, pinned_fault, traced
from repro.core.analysis.phases import (
    decompose_phases_vs_reference,
    expected_stagnation_iterations,
)

INJECT_AT = 20
TOTAL = 220


def bench_fig5_phases(benchmark, tmp_path):
    # Fig. 2's SlowDegrade fault, through Campaign.run with the warm-up
    # snapshot at the fault iteration: the faulty run's earlier
    # iterations are the reference run's.
    campaign = directed_campaign("resnet_nobn", INJECT_AT, TOTAL, test_every=0)
    fault = pinned_fault("2.conv1", "input_grad", INJECT_AT, device=1,
                         magnitude=1e12, elements=1024, seed=1, coherent=True)
    result = campaign.run(faults=[fault], store=tmp_path / "fig5.jsonl",
                          trace=True)
    ref_acc = campaign.reference.train_accuracy_array()
    acc = np.concatenate([ref_acc[:INJECT_AT], traced(result)[0]["acc"]])
    analysis = decompose_phases_vs_reference(acc, ref_acc, INJECT_AT)

    header("Fig. 5 — three phases of SlowDegrade (accuracy deficit vs the "
           "fault-free reference)")
    table([
        {"phase": "1: degradation (faulty m dominates updates)",
         "iterations": str(analysis.degrade_span)},
        {"phase": "2: stagnation (huge v suppresses learning)",
         "iterations": str(analysis.stagnation_span)},
        {"phase": "3: recovery (corrupted state decays)",
         "iterations": str(analysis.recovery_span)},
    ])
    emit(f"recovered within the {TOTAL}-iteration budget: {analysis.recovered}")
    emit()
    emit("deficit (reference - faulty) every 10 iterations from the fault:")
    deficit = ref_acc - acc
    emit("  " + " ".join(f"{d:+.2f}" for d in deficit[INJECT_AT::10]))
    emit()

    iters = expected_stagnation_iterations(1e19, 0.9999)
    claim = paper_vs_measured(
        "recovery horizon for decay 0.9999 and faulty history ~1e19",
        "may require millions of iterations to fully recover (Sec. 4.2.3)",
        f"analytic v-decay crossing at {iters:,.0f} iterations",
        band=(1e6, None), value=iters,
    )
    write_artifact("fig5_phases", {"claims": [claim], "seed": None,
                                   "config": campaign.config_dict()},
                   smoke=False)
    table([{"decay": d, "faulty magnitude": m,
            "stagnation_iters": expected_stagnation_iterations(m, d)}
           for d in (0.9, 0.999, 0.9999) for m in (1e10, 1e19)],
          floatfmt="{:.3g}")

    assert analysis.has_three_phases

    benchmark.pedantic(
        lambda: decompose_phases_vs_reference(acc, ref_acc, INJECT_AT),
        rounds=20, iterations=1,
    )
