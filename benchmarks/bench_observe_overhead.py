"""Overhead of the observability layer (``repro.observe``).

The tracer and counters are designed to be left attached during
statistical campaigns, so their cost must be invisible next to an
iteration of training.  Measured here, on the 8-device trainer:

* end-to-end iterations/s with a live :class:`~repro.observe.Tracer`
  attached vs the default :data:`~repro.observe.NULL_TRACER` — asserted
  to cost **<=5%** per iteration (interleaved best-of-N runs, so slow
  drift in machine load cancels);
* micro-costs of the primitives themselves: one enabled ``emit``, one
  disabled ``emit`` (the campaign-default fast path), and one counter
  increment (what a serving engine pays per request).

Run under pytest (``pytest benchmarks/bench_observe_overhead.py``) or as
a script; ``--smoke`` shrinks the run for CI while still exercising the
full traced-vs-untraced comparison::

    PYTHONPATH=src python benchmarks/bench_observe_overhead.py --smoke
"""

from __future__ import annotations

import time

from _report import emit, header, paper_vs_measured, table, write_artifact
from repro.distributed import SyncDataParallelTrainer
from repro.observe import NULL_TRACER, Counter, Tracer
from repro.workloads import build_workload

NUM_DEVICES = 8
WARMUP_ITERATIONS = 4
MEASURED_ITERATIONS = 12
#: Best-of-N repeats.  At 2 the interleaved max-of runs still carried
#: enough scheduler noise to report *negative* overhead fractions (see
#: the PR-9 BENCH_observe_overhead.json); 5 repeats makes the best-of
#: estimate tight enough that the <=5% gate measures the tracer, not
#: the machine.
REPEATS = 5
SMOKE_REPEATS = 4

#: The acceptance budget: a live tracer may cost at most this fraction
#: of an iteration relative to the untraced run.
OVERHEAD_CEILING = 0.05


def _run_ips(spec, tracer, num_devices: int, warmup: int,
             iterations: int) -> float:
    """One training run; returns measured iterations/s."""
    trainer = SyncDataParallelTrainer(spec, num_devices=num_devices, seed=0,
                                      test_every=0, tracer=tracer)
    trainer.train(warmup)
    start = time.perf_counter()
    trainer.train(iterations)
    return iterations / (time.perf_counter() - start)


def _end_to_end(num_devices: int = NUM_DEVICES, warmup: int = WARMUP_ITERATIONS,
                iterations: int = MEASURED_ITERATIONS, repeats: int = REPEATS):
    """Interleaved best-of-N traced vs untraced runs."""
    spec = build_workload("resnet", size="tiny", seed=0)
    traced_ips, untraced_ips = 0.0, 0.0
    tracer = Tracer()
    for _ in range(repeats):
        tracer.clear()
        traced_ips = max(traced_ips,
                         _run_ips(spec, tracer, num_devices, warmup, iterations))
        untraced_ips = max(untraced_ips,
                           _run_ips(spec, None, num_devices, warmup, iterations))
    overhead = untraced_ips / traced_ips - 1.0
    return traced_ips, untraced_ips, overhead, len(tracer)


def _per_call(fn, calls: int = 20000, repeats: int = 5) -> float:
    """Best-of-N per-call wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls


def _micro_costs() -> list[dict]:
    tracer = Tracer()
    counter = Counter("bench.counter")
    return [
        {"primitive": "Tracer.emit (enabled)",
         "ns_per_call": _per_call(
             lambda: tracer.emit("iteration_stats", iteration=1,
                                 loss=0.5, acc=0.9)) * 1e9},
        {"primitive": "Tracer.emit (disabled fast path)",
         "ns_per_call": _per_call(
             lambda: NULL_TRACER.emit("iteration_stats", iteration=1,
                                      loss=0.5, acc=0.9)) * 1e9},
        {"primitive": "Counter.inc",
         "ns_per_call": _per_call(counter.inc) * 1e9},
    ]


def _report_and_check(traced_ips, untraced_ips, overhead, events,
                      num_devices, iterations, repeats=REPEATS,
                      smoke=False) -> None:
    header(f"repro.observe — tracing overhead ({num_devices} devices, "
           f"resnet/tiny, best-of-{repeats})")
    table([
        {"configuration": "NULL_TRACER (default)",
         "iterations_per_s": untraced_ips},
        {"configuration": f"live Tracer ({events} events buffered)",
         "iterations_per_s": traced_ips},
    ])
    emit()
    emit(f"per-iteration tracing overhead: {overhead * 100.0:+.2f}% "
         f"(budget: <={OVERHEAD_CEILING * 100.0:.0f}%)")
    emit()
    table(_micro_costs(), floatfmt="{:.0f}")
    emit()
    claim = paper_vs_measured(
        "observability must not perturb the measured system (the paper's "
        "per-iteration statistics are collected on every experiment)",
        "telemetry cost indistinguishable from run-to-run noise",
        f"{overhead * 100.0:+.2f}% per iteration with a live tracer",
        band=(None, OVERHEAD_CEILING), value=overhead,
    )
    write_artifact("observe_overhead", {
        "num_devices": num_devices,
        "iterations": iterations,
        "repeats": repeats,
        "untraced_iterations_per_s": untraced_ips,
        "traced_iterations_per_s": traced_ips,
        "overhead_fraction": overhead,
        "budget_fraction": OVERHEAD_CEILING,
        "events_buffered": events,
        "claims": [claim],
    }, smoke=smoke)
    assert overhead <= OVERHEAD_CEILING, (
        f"tracing overhead {overhead * 100.0:.2f}% exceeds the "
        f"{OVERHEAD_CEILING * 100.0:.0f}% per-iteration budget"
    )


def bench_observe_overhead(benchmark):
    results = _end_to_end()
    _report_and_check(*results, NUM_DEVICES, MEASURED_ITERATIONS)
    tracer = Tracer()
    # The benchmarked quantity: one enabled emit (the hot-path unit cost).
    benchmark(lambda: tracer.emit("iteration_stats", iteration=1,
                                  loss=0.5, acc=0.9))


def main(argv: list[str] | None = None) -> int:
    """Script entry point (CI runs ``--smoke``)."""
    import argparse

    import _report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run for CI (fewer devices/iterations)")
    args = parser.parse_args(argv)
    if args.smoke:
        results = _end_to_end(num_devices=2, warmup=2, iterations=8,
                              repeats=SMOKE_REPEATS)
        _report_and_check(*results, 2, 8, repeats=SMOKE_REPEATS, smoke=True)
    else:
        results = _end_to_end()
        _report_and_check(*results, NUM_DEVICES, MEASURED_ITERATIONS)
    for line in _report.LINES:
        print(line)
    _report.LINES.clear()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
