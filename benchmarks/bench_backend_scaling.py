"""Execution-backend scaling: experiments per program vs throughput.

The batched backend stacks E experiments into one vectorized NumPy
program (``repro.backend.batched``), so campaign throughput
(experiment-iterations per second) grows with E while the serial
in-process loop stays flat.  E=1 is the honest overhead point: the
batched program pays its lane bookkeeping without amortizing it.  The
throughput ratio must clear ``BATCH_SPEEDUP_FLOOR`` at the largest E.

Also checked at every scale: both backends produce bit-identical
convergence records (the determinism contract that makes the backend a
drop-in choice).

Run under pytest (``pytest benchmarks/bench_backend_scaling.py``) or as
a script; ``--smoke`` shrinks the run for CI::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --smoke
"""

from __future__ import annotations

import os
import time

from _report import emit, header, paper_vs_measured, table, write_artifact
from repro.backend import BatchedBackend, LaneGroup, run_lockstep
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload

WORKLOAD = "resnet"

#: Experiment-batch sweep: campaign throughput, batched vs serial.
#: 8 devices is the paper's campaign setting — and the regime the
#: batched backend targets: tiny per-device shards make the serial loop
#: dispatch-bound, which is exactly the overhead lane-stacking removes.
BATCH_SIZES = (1, 8, 32, 128)
SMOKE_BATCH_SIZES = (1, 32)
BATCH_DEVICES = 8
BATCH_ITERATIONS = 6
SMOKE_BATCH_ITERATIONS = 3
#: The design target for the experiment axis.  Recorded in the artifact
#: and compared against honestly: on hosts where the serial in-process
#: loop is already compute-bound (its kernels are the same vectorized
#: NumPy the batched program runs, and bit-identity pins the arithmetic),
#: the measured ceiling is the serial loop's dispatch-overhead fraction,
#: not 10x — the artifact records the target, the measurement, and
#: whether the target was met.
BATCH_SPEEDUP_TARGET = 10.0
#: What every run must actually clear at the largest E: the batched
#: backend must beat the serial loop, not just match it.
BATCH_SPEEDUP_FLOOR = 1.2
SMOKE_BATCH_SPEEDUP_FLOOR = 1.0


def _cpus() -> int:
    """Cores actually usable by this process (honest under cgroup caps)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _solo_experiment(iterations: int):
    """One serial in-process experiment; returns (seconds, loss_hexes)."""
    spec = build_workload(WORKLOAD, size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=BATCH_DEVICES, seed=0,
                                      test_every=0, backend="inprocess")
    try:
        start = time.perf_counter()
        trainer.train(iterations)
        elapsed = time.perf_counter() - start
        losses = [float(v).hex() for v in trainer.record.train_loss]
    finally:
        trainer.close()
    return elapsed, losses


def _batched_experiments(batch: int, iterations: int):
    """E identical experiments through one LaneGroup; returns
    (seconds, loss_hexes of every experiment)."""
    group = LaneGroup(capacity=batch)
    trainers = [
        SyncDataParallelTrainer(
            build_workload(WORKLOAD, size="tiny", seed=0),
            num_devices=BATCH_DEVICES, seed=0, test_every=0,
            backend=BatchedBackend(group=group))
        for _ in range(batch)
    ]
    try:
        start = time.perf_counter()
        run_lockstep(group, trainers, [iterations] * batch)
        elapsed = time.perf_counter() - start
        traces = [[float(v).hex() for v in t.record.train_loss]
                  for t in trainers]
    finally:
        for trainer in trainers:
            trainer.close()
    return elapsed, traces


def _measure_batches(batch_sizes, iterations):
    # Serial baseline: in-process experiments are independent and run
    # one after another, so experiment-iterations/second is E-invariant;
    # the best of three solo runs is the honest (generous) baseline.
    solo_runs = [_solo_experiment(iterations) for _ in range(3)]
    solo_s = min(s for s, _ in solo_runs)
    solo_losses = solo_runs[0][1]
    inproc_throughput = iterations / solo_s
    rows = []
    for batch in batch_sizes:
        batched_s, traces = _batched_experiments(batch, iterations)
        assert all(trace == solo_losses for trace in traces), (
            f"batched backend diverged from in-process at E={batch}")
        throughput = batch * iterations / batched_s
        rows.append({
            "experiment_batch": batch,
            "inprocess_throughput_expiter_s": inproc_throughput,
            "batched_throughput_expiter_s": throughput,
            "batched_s": batched_s,
            "speedup": throughput / inproc_throughput,
            "bit_identical": True,
        })
    return rows


def _report_batch_rows(rows, iterations: int, smoke: bool) -> None:
    cpus = _cpus()
    header("experiment-batch scaling: E experiments, one vectorized program")
    emit(f"host: {cpus} usable core(s); {WORKLOAD}/tiny, {BATCH_DEVICES} "
         f"devices, {iterations} iterations per experiment; throughput in "
         f"experiment-iterations/second")
    table(rows, columns=["experiment_batch", "inprocess_throughput_expiter_s",
                         "batched_throughput_expiter_s", "speedup"])
    at_e1 = next((r for r in rows if r["experiment_batch"] == 1), None)
    if at_e1 is not None:
        emit(f"E=1 overhead (honest): batched runs at "
             f"{at_e1['speedup']:.2f}x the serial loop — lane bookkeeping "
             f"is only amortized by stacking experiments")
    top = max(rows, key=lambda r: r["experiment_batch"])
    floor = SMOKE_BATCH_SPEEDUP_FLOOR if smoke else BATCH_SPEEDUP_FLOOR
    paper_vs_measured(
        "stacking E experiments amortizes NumPy dispatch overhead",
        paper=f"{BATCH_SPEEDUP_TARGET:.0f}x design target (floor "
              f">={floor:.1f}x) over the serial in-process loop at "
              f"E={top['experiment_batch']}",
        measured=f"{top['speedup']:.2f}x at E={top['experiment_batch']}",
        holds=top["speedup"] >= floor,
    )
    if top["speedup"] < BATCH_SPEEDUP_TARGET:
        emit(f"design target not reached on this host: the serial loop's "
             f"kernels are the same vectorized NumPy the batched program "
             f"runs (bit-identity pins the arithmetic), so the ceiling is "
             f"the serial loop's dispatch-overhead fraction")
    data = {
        "workload": WORKLOAD,
        "cpus": cpus,
        "num_devices": BATCH_DEVICES,
        "iterations": iterations,
        "rows": rows,
        "max_experiment_batch": top["experiment_batch"],
        "speedup_at_max_batch": top["speedup"],
        "speedup_target": BATCH_SPEEDUP_TARGET,
        "speedup_target_met": top["speedup"] >= BATCH_SPEEDUP_TARGET,
        "speedup_floor": floor,
    }
    write_artifact("backend_scaling", data, smoke=smoke)
    assert top["speedup"] >= floor, (
        f"batched backend only reached {top['speedup']:.2f}x at "
        f"E={top['experiment_batch']} (floor {floor:.1f}x)")


def bench_experiment_batch_scaling(benchmark):
    rows = _measure_batches(SMOKE_BATCH_SIZES, SMOKE_BATCH_ITERATIONS)
    _report_batch_rows(rows, SMOKE_BATCH_ITERATIONS, smoke=True)
    # The benchmarked unit: one lockstep round of 8 experiments x 2
    # devices through the batched program replica, steady state.
    group = LaneGroup(capacity=8)
    trainers = [
        SyncDataParallelTrainer(
            build_workload(WORKLOAD, size="tiny", seed=0),
            num_devices=BATCH_DEVICES, seed=0, test_every=0,
            backend=BatchedBackend(group=group))
        for _ in range(8)
    ]
    try:
        run_lockstep(group, trainers, [1] * 8)  # warm up
        benchmark(lambda: run_lockstep(group, trainers, [1] * 8))
    finally:
        for trainer in trainers:
            trainer.close()


def main(argv: list[str] | None = None) -> int:
    """Script entry point (CI runs ``--smoke``)."""
    import argparse

    import _report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run for CI (fewer batch sizes/iterations)")
    args = parser.parse_args(argv)
    sizes, iterations = ((SMOKE_BATCH_SIZES, SMOKE_BATCH_ITERATIONS)
                         if args.smoke else (BATCH_SIZES, BATCH_ITERATIONS))
    _report_batch_rows(_measure_batches(sizes, iterations), iterations,
                       smoke=args.smoke)
    for line in _report.LINES:
        print(line)
    _report.LINES.clear()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
