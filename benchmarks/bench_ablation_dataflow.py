"""Ablation: dataflow-derived fault geometry vs. naive uniform injection.

DESIGN.md decision 4: faulty element positions come from the accelerator
dataflow model (16 consecutive channels per cycle, width-major growth),
not from uniform random sampling.  This ablation quantifies the
difference: dataflow faults are *structured* (contiguous channel blocks
at one spatial position), which changes how BatchNorm statistics absorb
them — uniform scatter spreads damage across channels, while a dataflow
burst concentrates it in a 16-channel band.

Also covers the Sec. 4.3.3 discussion (sensitivity to device count): the
same fault's gradient contribution is diluted by 1/num_devices.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, table
from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.software_models import model_for_ff, write_record
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload


def bench_ablation_fault_geometry(benchmark):
    rng = np.random.default_rng(0)
    tensor = rng.normal(size=(8, 32, 16, 16)).astype(np.float32)
    ff = FFDescriptor("global_control", group=1, has_feedback=True)
    model = model_for_ff(ff)

    # Dataflow-derived geometry: channel spread per fault.
    spreads_dataflow = []
    for seed in range(200):
        record = model.apply(tensor, np.random.default_rng(seed), ff)
        if record.num_faulty:
            coords = np.unravel_index(record.positions, tensor.shape)
            spreads_dataflow.append(len(set(coords[1].tolist())))

    # Naive uniform geometry with matched fault sizes.
    spreads_uniform = []
    for seed in range(200):
        record = model.apply(tensor, np.random.default_rng(seed), ff)
        if record.num_faulty:
            idx = np.random.default_rng(seed + 10_000).choice(
                tensor.size, size=record.num_faulty, replace=False
            )
            coords = np.unravel_index(idx, tensor.shape)
            spreads_uniform.append(len(set(coords[1].tolist())))

    header("Ablation — dataflow fault geometry vs. naive uniform injection")
    table([
        {"geometry": "dataflow (16-lane cycles, width-major)",
         "mean channels touched": float(np.mean(spreads_dataflow)),
         "max channels touched": int(np.max(spreads_dataflow))},
        {"geometry": "uniform random elements (naive software FI)",
         "mean channels touched": float(np.mean(spreads_uniform)),
         "max channels touched": int(np.max(spreads_uniform))},
    ])
    emit()
    emit("Dataflow faults stay inside one 16-channel lane group; uniform")
    emit("injection scatters across nearly all 32 channels.  Per-channel")
    emit("BatchNorm statistics therefore see concentrated vs diluted")
    emit("perturbations — the inaccuracy of naive software FI that the")
    emit("paper's RTL-derived fault models correct (Sec. 3).")
    assert np.mean(spreads_dataflow) < np.mean(spreads_uniform)

    # Sec. 4.3.3: gradient dilution with device count — measured by
    # injecting the same single-device fault under different device
    # counts and reading the resulting optimizer-history magnitude.
    from repro.core.faults import FaultInjector, HardwareFault, OpSite

    emit()
    rows = []
    for devices in (1, 2, 4, 8):
        spec = build_workload("resnet", size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=devices, seed=0,
                                          test_every=0, stop_on_nonfinite=False)
        fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                              iteration=5, device=0, seed=3)
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        trainer.train(6)
        rows.append({
            "devices": devices,
            "injected max|value|": injector.record.max_abs_faulty(),
            "post-fault max|m|": float(np.abs(np.nan_to_num(
                trainer.optimizer.slots["m"], posinf=3e38)).max()),
        })
    table(rows, floatfmt="{:.3g}")
    emit("Gradient averaging dilutes the same faulty contribution by")
    emit("1/num_devices before it reaches the optimizer history — one of")
    emit("the two opposing device-count factors of Sec. 4.3.3.")
    assert rows[0]["post-fault max|m|"] > rows[-1]["post-fault max|m|"]

    benchmark(lambda: write_record(
        tensor, model.apply(tensor, np.random.default_rng(1), ff)))
