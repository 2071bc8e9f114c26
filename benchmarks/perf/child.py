"""One workload, in one fresh process, start to finish.

``run.py`` starts this file once per measurement so that set-up time and
peak memory belong to one workload and nothing is warm from a
neighbour.  The result is written as JSON to ``--result``; nothing on
stdout is part of the protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    # One core for every thread of the child: the host's two cores change
    # speed independently, and the clock can only calibrate the core it
    # samples (README, "Why times are host-normalised").
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from hostclock import HostClock

    clock = HostClock()
    clock_epoch, clock_start = time.time(), time.perf_counter()
    clock.start()

    import numpy

    import workloads
    from probes import Probes

    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        sizes=workloads.SMOKE if args.smoke else workloads.FULL,
        workdir=args.workdir, clock=clock,
        probes=Probes() if args.mode == "traced" else None,
        setup_only=args.mode == "setup")
    if ctx.traced:
        ctx.probes.install()
    try:
        workloads.RUNNERS[args.workload](ctx)
    finally:
        if ctx.traced:
            ctx.probes.remove()
        clock.stop()

    result = ctx.result
    # Set-up: parent's spawn to the first timed operation.  The stretch
    # before the clock could start (interpreter, NumPy) is taken as is.
    boot = clock_epoch - args.spawned_at
    setup_end = ctx.marks["setup_end"]
    result["setup_s"] = boot + float(clock.normalise(clock_start, setup_end)[0])
    result["setup_raw_s"] = boot + setup_end - clock_start
    result.update(workload=args.workload, seed=args.seed, mode=args.mode,
                  host=clock.summary(), numpy=numpy.__version__, pinned_core=core,
                  sizes=dataclasses.asdict(ctx.sizes))
    if ctx.traced:
        from attribution import layer_metrics, write_trace

        spans = ctx.probes.spans()
        result["layers"] = layer_metrics(ctx, spans)
        result["probes_missing"] = ctx.probes.missing
        write_trace(args.result.with_name(f"trace_{args.workload}.json"),
                    ctx, spans)
    workloads.dump_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
