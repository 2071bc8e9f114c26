"""Sec. 5.3: performance overheads of detection, recovery, and baselines.

Measures component costs directly against the training-iteration cost
(A/B wall-clock runs cannot resolve sub-percent effects against OS timer
noise; a direct measurement of each per-iteration component is exact):

* one bound-check detection pass (paper: 0.003%-0.025% of an iteration);
* recovery bookkeeping (snapshot-ring capture) per iteration;
* one ABFT checksum pass (paper: 5%-7%);
* the cost of one two-iteration re-execution event (paper: 0.04%-0.15%
  amortized per run);
* checkpoint-recovery cost in re-executed iterations (paper: up to ~500x
  the two-iteration re-execution at ~1000-iteration epochs) — the same
  snapshot ring as re-execution, captured once per epoch instead of
  every iteration.

Absolute percentages do not transfer from a NumPy simulator (iterations
are ~1000x cheaper than on a TPU pod while the bound check is constant
cost); the reproduced shape is the cost ordering
detection < bookkeeping << ABFT << checkpoint recovery.
"""

from __future__ import annotations

import time

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import NUM_DEVICES
from repro.core.mitigation import (
    REEXECUTE_ITERATIONS,
    HardwareFailureDetector,
    RecoveryManager,
    derive_bounds_for_trainer,
)
from repro.core.mitigation.baselines import ABFTChecker
from repro.distributed import SyncDataParallelTrainer
from repro.training.checkpoints import Checkpoint
from repro.workloads import build_workload

WARMUP_ITERATIONS = 10


def _best_time(fn, repeats: int = 30) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_sec5_overheads(benchmark):
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=0)
    trainer.train(WARMUP_ITERATIONS)

    # Component costs, each measured in isolation (best of N).
    counter = iter(range(10_000_000))
    iteration_time = _best_time(
        lambda: trainer.run_iteration(WARMUP_ITERATIONS + next(counter)), repeats=15
    )

    detector = HardwareFailureDetector(derive_bounds_for_trainer(trainer))
    detector.check(trainer, 0)  # warm the layer cache
    detection_time = _best_time(lambda: detector.check(trainer, 0))

    snapshot_time = _best_time(lambda: Checkpoint.capture(trainer), repeats=15)

    # ABFT reads the operands of whichever path ``run_iteration`` above
    # took (by default lanes of the program replica), so the pass and its
    # baseline iteration are timed on the same path.
    abft = ABFTChecker()
    abft_time = _best_time(lambda: abft.after_backward(trainer, 0), repeats=10)

    # One recovery event: rewind + re-execute two iterations.
    recovery_trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES,
                                               seed=0, test_every=0)
    manager = RecoveryManager(strategy="snapshot")
    recovery_trainer.add_hook(manager)
    recovery_trainer.train(10)
    start = time.perf_counter()
    resume = manager.rewind(recovery_trainer, detected_at=9)
    recovery_trainer.train(10 - resume)
    recovery_event_time = time.perf_counter() - start

    # Checkpoint recovery: the same ring at epoch cadence, detection in
    # an epoch's last iteration, so the rewind goes one epoch back.
    epoch = 25
    ckpt_trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                           test_every=0)
    ckpt = RecoveryManager(every=epoch)
    ckpt_trainer.add_hook(ckpt)
    ckpt_trainer.train(2 * epoch - 1)
    detected_at = ckpt_trainer.iteration - 1
    reexecuted = detected_at + 1 - ckpt.rewind(ckpt_trainer,
                                               detected_at=detected_at)

    def pct(t):
        return 100.0 * t / iteration_time

    rows = [
        {"component": "training iteration (baseline)",
         "time_ms": iteration_time * 1e3, "per-iteration overhead_%": "-"},
        {"component": "bound-check detection (Sec. 5.1)",
         "time_ms": detection_time * 1e3,
         "per-iteration overhead_%": pct(detection_time)},
        {"component": "recovery bookkeeping (snapshot capture)",
         "time_ms": snapshot_time * 1e3,
         "per-iteration overhead_%": pct(snapshot_time)},
        {"component": "ABFT checksum pass (baseline technique)",
         "time_ms": abft_time * 1e3,
         "per-iteration overhead_%": pct(abft_time)},
    ]
    header(f"Sec. 5.3 — per-iteration component costs ({NUM_DEVICES} devices, "
           "best-of-N direct measurement)")
    table(rows)
    emit()
    emit(f"one recovery event (rewind + re-execute 2 iters): "
         f"{recovery_event_time * 1e3:.0f}ms = "
         f"{recovery_event_time / iteration_time:.1f} iteration-equivalents")
    ratio = reexecuted / REEXECUTE_ITERATIONS
    emit(f"one checkpoint recovery: {reexecuted} iterations "
         f"re-executed = {ratio:.0f}x the "
         f"two-iteration re-execution (paper: up to ~500x at ~1000-iteration "
         f"epochs)")
    emit()
    claims = [
        paper_vs_measured(
            "bound-check detection is cheaper than ABFT",
            "0.003%-0.025% (detection) vs 5%-7% (ABFT) on Cloud TPUs",
            f"{pct(detection_time):.2f}% (detection) vs {pct(abft_time):.2f}% "
            f"(ABFT) of an iteration; ratio detection / ABFT",
            band=(None, 1), value=detection_time / abft_time),
        paper_vs_measured(
            "checkpoint recovery is costlier than two-iteration "
            "re-execution, in proportion to the epoch length",
            "up to ~500x (one checkpoint per ~1000-iteration epoch)",
            f"{ratio:.0f}x at {reexecuted}-iteration "
            f"rollback (epoch={epoch})",
            band=(1, None), value=ratio),
    ]
    write_artifact("sec5_overheads", {"claims": claims}, smoke=False)
    emit()
    emit("Scale note: on a TPU pod an iteration takes seconds while the")
    emit("bound check stays a few hundred microseconds — the paper's")
    emit("0.003%-0.025% band; on this simulator an iteration is ~20ms, so")
    emit("the same constant-cost check reads as ~1%.")

    assert detection_time < abft_time

    # The benchmarked quantity: one full detection check.
    benchmark(lambda: detector.check(trainer, 0))
