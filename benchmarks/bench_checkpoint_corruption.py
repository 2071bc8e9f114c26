"""The "which checkpoint is clean?" problem (Sec. 5 motivation).

The paper motivates bounded-latency detection with the checkpointing
dilemma: for a latent outcome, "it is not clear how one could determine
which checkpoint to revert to, not to mention that the available
checkpoints may all have been corrupted."

This bench stages the dilemma: a history-corrupting fault strikes, the
recovery ring at epoch cadence (``RecoveryManager(every=EPOCH)``) keeps
the ``keep`` most recent checkpoints, and the corruption is only
*noticed* (accuracy visibly low) many iterations later.  By then every retained checkpoint carries the
corrupted optimizer state.  The paper's detector flags the fault within
two iterations — while a clean checkpoint still exists.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import NUM_DEVICES, pinned_fault
from repro.core.faults import FaultInjector
from repro.core.mitigation import HardwareFailureDetector, RecoveryManager
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload

EPOCH = 10          # iterations per "epoch" (checkpoint cadence)
KEEP = 3            # rolling checkpoints retained
INJECT_AT = 35
TOTAL = 100
NOTICE_DELAY = 40   # iterations until a human notices the degradation


def _history_is_clean(checkpoint) -> bool:
    for buf in checkpoint.opt_slots.values():
        with np.errstate(invalid="ignore"):
            magnitude = np.abs(buf).max()
        if not np.isfinite(magnitude) or magnitude > 1e6:
            return False
    return True


def bench_checkpoint_corruption(benchmark):
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=0, stop_on_nonfinite=False)
    ring = RecoveryManager(every=EPOCH, keep=KEEP)
    detector = HardwareFailureDetector()
    fault = FaultInjector(pinned_fault("1.conv1", "weight_grad", INJECT_AT,
                                       device=1, magnitude=1e12, elements=64,
                                       seed=7))
    trainer.add_hook(ring)
    trainer.add_hook(fault)
    trainer.add_hook(detector)
    trainer.train(TOTAL)

    rows = []
    noticed_at = INJECT_AT + NOTICE_DELAY
    # Which checkpoints does the ring hold at "notice time"?
    held_at_notice = [i for i in range(0, noticed_at, EPOCH)][-KEEP:]
    for ckpt in ring.snapshots:
        rows.append({
            "checkpoint iter": ckpt.iteration,
            "optimizer history clean": _history_is_clean(ckpt),
        })

    header("Sec. 5 motivation — the checkpoint-corruption dilemma "
           f"(epoch={EPOCH}, keep last {KEEP}, fault at {INJECT_AT})")
    emit("ring contents at the end of training:")
    table(rows)
    emit()
    emit(f"if the degradation is noticed {NOTICE_DELAY} iterations after the")
    emit(f"fault (iteration {noticed_at}), the ring would hold checkpoints "
         f"{held_at_notice} —")
    clean_available = any(i <= INJECT_AT for i in held_at_notice)
    emit(f"a pre-fault checkpoint {'IS' if clean_available else 'is NOT'} "
         "among them.")
    emit()
    detection_latency = (detector.detection_latency(INJECT_AT)
                         if detector.fired else None)
    claim = paper_vs_measured(
        "late discovery leaves only corrupted checkpoints; bounded-latency "
        "detection flags the fault while a clean checkpoint exists",
        "available checkpoints may all have been corrupted (Sec. 5); "
        "the detector flags every such fault within 2 iterations (Sec. 5.1)",
        f"all retained end-of-run checkpoints corrupted: "
        f"{all(not r['optimizer history clean'] for r in rows if r['checkpoint iter'] > INJECT_AT)}; "
        f"detector latency {detection_latency} iterations",
        band=(1, 1), counts=(int(detection_latency is not None
                                 and detection_latency <= 2), 1),
    )
    write_artifact("checkpoint_corruption", {"claims": [claim]}, smoke=False)
    assert detector.fired

    benchmark.pedantic(lambda: _history_is_clean(ring.snapshots[-1]),
                       rounds=10, iterations=1)
