"""Algorithm 1: the mathematically derived detection bounds.

For every Adam workload, derives the gradient-history bound
``20*sqrt(n_l)/m`` and the mvar bound ``(1 + N_l eta^2 k^2)^l``, trains
fault-free, and reports the margin between the largest observed
history/mvar values and the bounds — versus the margin to the smallest
Table 4 faulty magnitude (2.7e8).  The separation is what gives the
detector zero false positives and full condition coverage.
"""

from __future__ import annotations

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import NUM_DEVICES
from repro.core.mitigation import derive_bounds_for_trainer
from repro.distributed import SyncDataParallelTrainer
from repro.optim.base import max_abs
from repro.workloads import build_workload

ADAM_WORKLOADS = ["resnet", "resnet_nobn", "resnet_largedecay", "densenet",
                  "efficientnet", "nfnet", "yolo", "multigrid", "transformer"]
SMALLEST_FAULTY = 2.7e8  # smallest Table 4 magnitude


def bench_alg1_bounds(benchmark):
    rows = []
    for name in ADAM_WORKLOADS:
        spec = build_workload(name, size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                          test_every=0)
        trainer.train()
        bounds = derive_bounds_for_trainer(trainer, slack=100.0)
        first = max_abs(trainer.optimizer.first_moment_arrays())
        second = max_abs(trainer.optimizer.second_moment_arrays())
        mvar = trainer.mvar_magnitude()
        within = (
            first < bounds.effective_history_bound
            and second < bounds.effective_second_moment_bound
            and (not spec.has_batchnorm or mvar < bounds.effective_mvar_bound)
        )
        rows.append({
            "workload": name,
            "history bound": bounds.history_bound,
            "max|m| observed": first,
            "max|v| observed": second,
            "mvar bound": bounds.mvar_bound if spec.has_batchnorm else "-",
            "max|mvar| observed": mvar if spec.has_batchnorm else "-",
            "fault-free within bounds": within,
        })

    header("Algorithm 1 — derived bounds vs. fault-free observations "
           "(slack 100x applied at check time)")
    table(rows, floatfmt="{:.3g}")
    emit()

    worst_bound = max(
        r["history bound"] * 100 for r in rows
    )
    within = sum(r["fault-free within bounds"] for r in rows)
    claims = [paper_vs_measured(
        "fault-free values stay within bounds on every workload",
        "P(|m_t| > 20*sqrt(n_l)/m) < 3e-89 under Properties 1-4",
        f"{within}/{len(rows)} workloads within slacked bounds",
        band=(1, 1), counts=(within, len(rows)),
    ), paper_vs_measured(
        "the bounds flag the smallest Table 4 faulty magnitude",
        f"smallest Table 4 faulty magnitude {SMALLEST_FAULTY:.1e}",
        f"largest slacked bound {worst_bound:.3g} "
        f"({SMALLEST_FAULTY / worst_bound:.1g}x separation)",
        band=(None, SMALLEST_FAULTY), value=worst_bound,
    )]
    write_artifact("alg1_bounds", {"claims": claims}, smoke=False)
    assert within == len(rows)

    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=0)
    trainer.train(2)
    benchmark(lambda: derive_bounds_for_trainer(trainer))
