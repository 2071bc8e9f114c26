"""Table 1: the software fault-model inventory.

Regenerates Table 1's structure — every fault-model group with its FF
population fraction and its observed behaviour (faulty-element counts and
value character) when applied to a representative conv-layer output — and
benchmarks the fault-application hot path.  Each row's behaviour text is
its Table 1 row's (:data:`repro.core.faults.software_models.TABLE1`).
"""

from __future__ import annotations

import numpy as np

from _report import header, table
from repro.accelerator.ffs import GLOBAL_GROUP_FRACTIONS, FFDescriptor
from repro.core.faults.software_models import model_for_ff, write_record

#: A conv-activation-sized tensor: shard batch 8, 32 channels, 16x16.
TENSOR_SHAPE = (8, 32, 16, 16)


def _characterize(model, ff, tensor, trials=40):
    rng_master = np.random.default_rng(1234)
    counts, max_abs = [], 0.0
    for _ in range(trials):
        seed = int(rng_master.integers(0, 2**31))
        record = model.apply(tensor, np.random.default_rng(seed), ff)
        counts.append(record.num_faulty)
        value = record.max_abs_faulty()
        if np.isfinite(value):
            max_abs = max(max_abs, value)
        else:
            max_abs = float("inf")
    return {
        "mean_faulty_elems": float(np.mean(counts)),
        "max_faulty_elems": int(np.max(counts)),
        "max_abs_value": max_abs,
    }


def bench_table1_inventory(benchmark):
    rng = np.random.default_rng(0)
    tensor = rng.normal(size=TENSOR_SHAPE).astype(np.float32)

    rows = []
    for group, ff in [
        *((g, FFDescriptor("global_control", group=g, has_feedback=True))
          for g in sorted(GLOBAL_GROUP_FRACTIONS)),
        ("datapath", FFDescriptor("datapath", bit=30)),
        ("local_ctl", FFDescriptor("local_control", has_feedback=True)),
    ]:
        model = model_for_ff(ff)
        rows.append({
            "group": group,
            "%FFs": 100 * GLOBAL_GROUP_FRACTIONS[group] if ff.group else "-",
            **_characterize(model, ff, tensor),
            "behaviour": model.behaviour,
        })

    header("Table 1 — software fault models (tiny conv tensor "
           f"{TENSOR_SHAPE}, 40 seeded applications each)")
    table(rows)

    # Hot path: one group-1 application per call.
    ff1 = FFDescriptor("global_control", group=1, has_feedback=True)
    model1 = model_for_ff(ff1)
    seeds = iter(range(10_000_000))

    def apply_once():
        write_record(tensor, model1.apply(tensor, np.random.default_rng(next(seeds)), ff1))

    benchmark(apply_once)
