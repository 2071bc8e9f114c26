"""Fig. 4: characterization of fault propagation paths and effects.

Instruments one forward-pass and one backward-pass fault with the
propagation tracer and prints the magnitude of each fault-carrying state
class (|weights|, |gradients|, |optimizer history|, |mvar|) around the
fault — the machine-readable version of Fig. 4's path diagram:

* backward fault -> gradients -> optimizer history (persists);
* forward fault -> large activations -> BatchNorm mvar (persists);
  weights stay bounded under Adam in both cases.
"""

from __future__ import annotations

import numpy as np

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import GROUP1, NUM_DEVICES
from repro.core.analysis.propagation import PropagationTracer
from repro.core.faults import FaultInjector, HardwareFault, OpSite
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload

INJECT_AT = 15


def _traced_run(site, kind, seed):
    spec = build_workload("resnet", size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=0, stop_on_nonfinite=False)
    fault = HardwareFault(ff=GROUP1, site=OpSite(site, kind),
                          iteration=INJECT_AT, device=1, seed=seed)
    injector = FaultInjector(fault)
    tracer = PropagationTracer()
    trainer.add_hook(injector)
    trainer.add_hook(tracer)
    trainer.train(INJECT_AT + 8)
    return injector, tracer


def _rows(tracer, label):
    trace = tracer.trace.as_arrays()
    rows = []
    for offset in (-2, -1, 0, 1, 2, 4, 6):
        i = INJECT_AT + offset
        idx = int(np.where(trace["iterations"] == i)[0][0])
        rows.append({
            "pass": label,
            "iter": f"t{offset:+d}" if offset else "t (fault)",
            "max|w|": trace["max_weight"][idx],
            "max|g|": trace["max_gradient"][idx],
            "max|history|": trace["max_history"][idx],
            "max|mvar|": trace["max_mvar"][idx],
        })
    return rows


def _first_large_fault(kind):
    """The propagation tracer of the first seed whose ``kind`` fault
    writes a value above 1e15 (smaller ones are usually masked)."""
    for seed in range(20):
        injector, tracer = _traced_run("1.conv1", kind, seed)
        if injector.record and injector.record.max_abs_faulty() > 1e15:
            return tracer
    raise AssertionError(f"no {kind} fault among 20 seeds exceeds 1e15")


def bench_fig4_propagation(benchmark):
    rows, onsets = [], {}
    for kind, label in (("weight_grad", "backward (weight_grad)"),
                        ("forward", "forward")):
        tracer = _first_large_fault(kind)
        rows += _rows(tracer, label)
        onsets[kind] = {o.condition: o.latency_from_fault
                        for o in tracer.condition_onsets(INJECT_AT)}

    header("Fig. 4 — fault propagation: state-class magnitudes around the "
           "fault iteration (group-1 fault, device 1 of 4)")
    table(rows, floatfmt="{:.3g}")
    emit()
    emit("backward fault condition onsets (latency from fault): "
         f"{onsets['weight_grad']}")
    emit(f"forward  fault condition onsets (latency from fault): {onsets['forward']}")
    emit()
    emit("Backward faults inflate the optimizer's gradient history; forward")
    emit("faults inflate BatchNorm's moving variance; weights remain bounded")
    emit("under Adam in both cases — the Fig. 4 propagation structure.")

    on_time = sum(onsets[kind].get(condition, 99) <= 2
                  for kind, condition in (("weight_grad", "gradient_history"),
                                          ("forward", "mvar")))
    claim = paper_vs_measured(
        "a fault's pass decides the state it persists in",
        "backward fault -> gradients -> optimizer history; forward fault -> "
        "activations -> mvar (Fig. 4)",
        f"{on_time}/2 faults fired their pass's condition within 2 "
        f"iterations",
        band=(1, 1), counts=(on_time, 2),
    )
    write_artifact("fig4_propagation", {"claims": [claim]}, smoke=False)
    assert onsets["weight_grad"].get("gradient_history", 99) <= 2

    benchmark.pedantic(lambda: _traced_run("1.conv1", "weight_grad", 3),
                       rounds=3, iterations=1)
