#!/usr/bin/env python3
"""Multiple-failure study (Sec. 4.3.2 of the paper).

The paper argues that at reported datacenter failure rates, failures
within one training run are rare and far apart, so their effects are
independent and the single-failure necessary conditions still apply.
This example:

1. computes the expected failure count for a realistic run;
2. injects several spread-out transient faults into one training run;
3. shows the detector + two-iteration re-execution handling each
   independently.

Run:  python examples/multi_fault_study.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults import (
    FaultInjector,
    HardwareFault,
    OpSite,
    expected_faults_per_run,
)
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryManager,
)
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload


def main() -> None:
    # ------------------------------------------------------------------
    # 1. How many failures should a run expect?
    # ------------------------------------------------------------------
    print("expected hardware failures per training run "
          "(rate: 1e-4 failures/device-hour):")
    for iterations, seconds, devices, label in [
        (50_000, 0.2, 8, "mid-sized DNN (the paper's majority case)"),
        (500_000, 1.0, 256, "large-scale pretraining run"),
    ]:
        expected = expected_faults_per_run(iterations, seconds, devices)
        print(f"  {label}: {expected:.2f}")
    print("  -> mid-sized runs see at most ~one failure; large runs see a")
    print("     few, far apart (Sec. 4.3.2's independence argument)\n")

    # ------------------------------------------------------------------
    # 2. Three spread-out faults in one run, with mitigation.
    # ------------------------------------------------------------------
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=4, seed=0,
                                      test_every=10, stop_on_nonfinite=False)
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    faults = [
        HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                      iteration=10, device=1, seed=3),
        HardwareFault(ff=ff, site=OpSite("2.conv2", "weight_grad"),
                      iteration=30, device=2, seed=5),
        HardwareFault(ff=ff, site=OpSite("1.conv2", "weight_grad"),
                      iteration=50, device=0, seed=3),
    ]
    injectors = [FaultInjector(fault) for fault in faults]
    detector = HardwareFailureDetector()
    for injector in injectors:
        trainer.add_hook(injector)
    trainer.add_hook(MitigationHook(detector, RecoveryManager(max_recoveries=10)))
    trainer.train(70)

    print(f"faults fired: {sum(i.fired for i in injectors)}/3")
    print(f"detections at iterations: {trainer.record.detections}")
    print(f"re-executions from iterations: {trainer.record.recoveries}")
    print(f"history state after the run: "
          f"{trainer.optimizer.history_magnitude():.3e} (clean)")
    print(f"final train accuracy: {trainer.record.final_train_accuracy():.2f}")

    clean = SyncDataParallelTrainer(build_workload("resnet", size="tiny", seed=0),
                                    num_devices=4, seed=0, test_every=10)
    clean.train(70)
    print(f"fault-free final accuracy:  "
          f"{clean.record.final_train_accuracy():.2f}")


if __name__ == "__main__":
    main()
