"""Lane-program scaling: lanes per step vs throughput, against the solo loop.

Baseline column: the sequential ``device_step`` loop (forced here by
making no model report itself lane-native — the default backend's own
fallback, and the reference the lane step is pinned against).  Rows:

* the default backend at E = 1 — its 8 devices are the 8 lanes of one
  program replica;
* ``batched`` at E in {8, 32, 128} — E experiments x 8 devices share a
  ``LaneGroup`` and step ``lane_chunk`` (8) lanes per kernel sweep;
* ``lane_chunk`` 16 and 32 at E = 32 — the one constant in the lane
  program, swept with each row's own peak RSS.

Every row runs in a fresh child process and is timed best of three, the
baseline too; ``peak_rss_mb`` is read after the first run, so it is that
configuration's alone.  Every experiment's loss trace must equal the
solo loop's bit for bit.  Throughput is experiment-iterations/second.
What the sweep says (EXPERIMENTS.md "Lane-program scaling"): the lane
step beats the solo loop ~1.5x at E = 1 already and stacking more
experiments or widening the chunk adds a few percent — 8 lanes x n = 4
leaves the kernels data-bound, so there is no target beyond the floor
that the lane step must beat the loop it replaced.

Run under pytest (``pytest benchmarks/bench_backend_scaling.py``) or as
a script; ``--smoke`` shrinks the run for CI::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --smoke
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import resource
import time
from unittest import mock

from _report import emit, header, paper_vs_measured, table, write_artifact
from repro.backend import BatchedBackend, LaneGroup, run_lockstep
from repro.distributed import SyncDataParallelTrainer
from repro.nn import Module
from repro.workloads import build_workload

WORKLOAD = "resnet"
#: 8 devices is the paper's campaign setting: tiny per-device shards
#: make the solo loop dispatch-bound, which is the overhead lanes remove.
DEVICES = 8
#: (experiment_batch, lane_chunk) per row: the E sweep at the built-in
#: chunk, then the chunk sweep at E = 32 (one trainer is one block
#: whatever the chunk).
CHUNK = LaneGroup.lane_chunk
ROWS = ((1, CHUNK), (8, CHUNK), (32, CHUNK), (128, CHUNK), (32, 16), (32, 32))
SMOKE_ROWS = ((1, CHUNK), (32, CHUNK), (32, 16))
ITERATIONS = 6
SMOKE_ITERATIONS = 3
#: What every run must clear on every row: the lane step must beat the
#: solo loop it replaced as the default, not just match it.
SPEEDUP_FLOOR = 1.2
SMOKE_SPEEDUP_FLOOR = 1.0


def _cpus() -> int:
    """Cores actually usable by this process (honest under cgroup caps)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _trainer(backend="inprocess") -> SyncDataParallelTrainer:
    return SyncDataParallelTrainer(
        build_workload(WORKLOAD, size="tiny", seed=0), num_devices=DEVICES,
        seed=0, test_every=0, backend=backend)


def _losses(trainer) -> list[str]:
    return [float(v).hex() for v in trainer.record.train_loss]


def _best_of_three(run) -> dict:
    """``run()`` -> ``(seconds, traces)``, three times: the fastest run,
    with the peak RSS of the first.  A child's first run is that
    configuration's alone; the later ones reuse and fragment its heap."""
    runs = [run()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runs += [run(), run()]
    seconds, traces = min(runs, key=lambda run: run[0])
    return {"seconds": seconds, "traces": traces, "peak_rss_mb": peak_kb / 1024}


def _one_trainer(iterations: int, solo: bool) -> dict:
    """E = 1 on the default backend (``solo``: its forced fallback)."""
    def run():
        with mock.patch.object(Module, "is_lane_native", lambda self: False) \
                if solo else contextlib.nullcontext():
            trainer = _trainer()
        assert trainer.backend.group.vectorized == (not solo)
        with trainer:
            start = time.perf_counter()
            trainer.train(iterations)
            return time.perf_counter() - start, [_losses(trainer)]
    return _best_of_three(run)


def _lockstep(batch: int, iterations: int, lane_chunk: int) -> dict:
    """E identical experiments through one shared LaneGroup.  Timed
    best of three like the E = 1 rows, so one noisy run of a row does
    not decide it against the baseline's best."""
    def run():
        group = LaneGroup(capacity=batch)
        group.lane_chunk = lane_chunk
        trainers = [_trainer(BatchedBackend(group=group)) for _ in range(batch)]
        try:
            start = time.perf_counter()
            run_lockstep(group, trainers, [iterations] * batch)
            return (time.perf_counter() - start,
                    [_losses(trainer) for trainer in trainers])
        finally:
            for trainer in trainers:
                trainer.close()
    return _best_of_three(run)


def _in_child(fn, *args) -> dict:
    """``fn(*args)`` in a fresh interpreter: its peak RSS is its own."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def _measure(row_specs, iterations: int) -> list[dict]:
    solo = _in_child(_one_trainer, iterations, True)
    solo_throughput = iterations / solo["seconds"]
    rows = []
    for batch, lane_chunk in row_specs:
        if batch == 1:
            got = _in_child(_one_trainer, iterations, False)
        else:
            got = _in_child(_lockstep, batch, iterations, lane_chunk)
        assert all(trace == solo["traces"][0] for trace in got["traces"]), (
            f"lane step diverged from the solo loop at E={batch}")
        throughput = batch * iterations / got["seconds"]
        rows.append({
            "backend": "inprocess" if batch == 1 else "batched",
            "experiment_batch": batch,
            "lane_chunk": lane_chunk,
            "solo_throughput_expiter_s": solo_throughput,
            "throughput_expiter_s": throughput,
            "seconds": got["seconds"],
            "speedup": throughput / solo_throughput,
            "peak_rss_mb": got["peak_rss_mb"],
            "bit_identical": True,
        })
    return rows


def _report(rows, iterations: int, smoke: bool) -> None:
    cpus = _cpus()
    header("lane-program scaling: lanes per step vs the solo device loop")
    emit(f"host: {cpus} usable core(s); {WORKLOAD}/tiny, {DEVICES} devices, "
         f"{iterations} iterations per experiment; throughput in "
         f"experiment-iterations/second; one child process per row")
    table(rows, columns=["backend", "experiment_batch", "lane_chunk",
                         "solo_throughput_expiter_s", "throughput_expiter_s",
                         "speedup", "peak_rss_mb"])
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    lowest = min(rows, key=lambda r: r["speedup"])
    best = max(rows, key=lambda r: r["speedup"])
    at_e1 = next(r for r in rows if r["experiment_batch"] == 1)
    claim = paper_vs_measured(
        "stepping lanes through one program beats the per-device loop",
        paper=f"every row >= {floor:.1f}x of the forced-solo loop",
        measured=f"{lowest['speedup']:.2f}x (lowest, E="
                 f"{lowest['experiment_batch']}) .. {best['speedup']:.2f}x "
                 f"(best, E={best['experiment_batch']}, lane_chunk "
                 f"{best['lane_chunk']})",
        band=(floor, None), value=lowest["speedup"],
    )
    emit(f"ceiling: the best row is {best['speedup'] / at_e1['speedup']:.2f}x "
         f"of the default backend at E=1 — {DEVICES} lanes already amortize "
         f"the per-call cost, past that the kernels are data-bound")
    write_artifact("backend_scaling", {
        "workload": WORKLOAD,
        "cpus": cpus,
        "num_devices": DEVICES,
        "iterations": iterations,
        "baseline": "forced-solo device_step loop, default backend",
        "rows": rows,
        "speedup_at_e1": at_e1["speedup"],
        "best_speedup": best["speedup"],
        "best_over_e1": best["speedup"] / at_e1["speedup"],
        "speedup_floor": floor,
        "claims": [claim],
    }, smoke=smoke)
    assert lowest["speedup"] >= floor, (
        f"the lane step only reached {lowest['speedup']:.2f}x of the solo "
        f"loop at E={lowest['experiment_batch']} (floor {floor:.1f}x)")


def bench_experiment_batch_scaling(benchmark):
    _report(_measure(SMOKE_ROWS, SMOKE_ITERATIONS), SMOKE_ITERATIONS,
            smoke=True)
    # The benchmarked unit: one lockstep round of 8 experiments x 8
    # devices through the program replica, steady state.
    group = LaneGroup(capacity=8)
    trainers = [_trainer(BatchedBackend(group=group)) for _ in range(8)]
    try:
        run_lockstep(group, trainers, [1] * 8)  # warm up
        benchmark(lambda: run_lockstep(group, trainers, [1] * 8))
    finally:
        for trainer in trainers:
            trainer.close()


def main(argv: list[str] | None = None) -> int:
    """Script entry point (CI runs ``--smoke``)."""
    import argparse

    import _report as report_module

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run for CI (fewer rows/iterations)")
    args = parser.parse_args(argv)
    row_specs, iterations = ((SMOKE_ROWS, SMOKE_ITERATIONS) if args.smoke
                             else (ROWS, ITERATIONS))
    _report(_measure(row_specs, iterations), iterations, smoke=args.smoke)
    for line in report_module.LINES:
        print(line)
    report_module.LINES.clear()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
