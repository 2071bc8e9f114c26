"""The repo benchmark: one command, every metric, checked outputs.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in fresh child processes, one after another: set-up
is measured ``SETUP_REPEATS`` times (the median is ``setup_s``), then
one child measures for ``--seconds``.  ``--trace`` swaps the timed run
for the fixed-size traced run that yields the per-layer metrics.  The
last line of stdout is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — and the full result, with provenance, lands in
``<out>/result.json``.  Definitions: ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # Never measure some other installed copy of the program.
    sys.exit(f"benchmark: no program to measure under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.provenance import run_provenance  # noqa: E402

SETUP_REPEATS = 3
#: One BLAS thread: the host has 2 cores and the serving path already
#: uses two threads (event loop + batch executor).
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.5


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, mode: str, args, out: Path) -> dict:
    workdir = out / "work" / f"{workload}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = out / f"child_{workload}_{mode}.json"
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", str(workdir),
        "--result", str(result_path), "--spawned-at", repr(time.time())]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, env={**os.environ, **BLAS_PIN}, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}/{mode}: no result within "
                          f"{CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise ChildFailed(f"{workload}/{mode}: exit {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result_path.unlink()
    return result


def measure(workload: str, args, out: Path) -> dict:
    """All of one workload's children; returns its result record."""
    if args.trace:
        main = run_child(workload, "traced", args, out)
        main["metrics"] = main.pop("layers")
        return main
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [run_child(workload, "setup", args, out)["setup_s"]
              for _ in range(repeats - 1)]
    main = run_child(workload, "timed", args, out)
    setups.append(main["setup_s"])
    main["setup_runs_s"] = setups
    main["metrics"]["setup_s"] = statistics.median(setups)
    main["metrics"]["peak_rss_mb"] = main.pop("peak_rss_mb")
    return main


def cross_check(results: dict) -> None:
    """``campaign_batched`` against ``campaign_inprocess``, index for
    index over the digest segments, once both children have exited."""
    solo, batched = (results.get(name) for name in
                     ("campaign_inprocess", "campaign_batched"))
    if not solo or not batched or "digests" not in solo:
        return
    differing = sum(
        batched["digests"].get(segment, {}).get(index) != sha
        for segment, by_index in solo["digests"].items()
        for index, sha in by_index.items())
    batched["cross_checked"] = sum(map(len, solo["digests"].values()))
    if differing:
        batched.setdefault("failures", []).append(
            f"{differing} arena digests differ from campaign_inprocess")
        batched["failed"] += differing


def report(results: dict, spec: dict, traced: bool) -> dict:
    """Print every metric by name and unit; return the closing object."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    single = len(results) == 1
    metrics = {}
    print(f"{'workload':<20}{'metric':<36}{'value':>14} unit")
    for workload, result in results.items():
        for entry in listed:
            value = result["metrics"].get(entry["name"])
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{workload:<20}{entry['name']:<36}{shown:>14} "
                  f"{entry['unit']} ({entry['better']} is better)")
            name = entry["name"] if single else f"{workload}.{entry['name']}"
            # The closing line carries numbers only: a probe whose target
            # is gone reads 0 there and is named in probes_missing.
            metrics[name] = {"value": 0.0 if value is None else value,
                             "unit": entry["unit"]}
        print(f"{workload:<20}attempted {result['attempted']}, failed "
              f"{result['failed']}, state_digest {result['state_digest'][:16]}, "
              f"outcomes {result['outcome_counts']}")
        for failure in result.get("failures", []):
            print(f"{workload:<20}FAILED CHECK: {failure}")
        if result.get("probes_missing"):
            print(f"{workload:<20}probes_missing: {result['probes_missing']}")
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0 and not any(
                r.get("failures") for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default "
                             f"{spec['run_seconds']}; {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="traced attribution run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at <= 1/8 size, one set-up each")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    try:
        for workload in [args.workload] if args.workload else names:
            results[workload] = measure(workload, args, out)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "work", ignore_errors=True)
    cross_check(results)
    closing = report(results, spec, bool(args.trace))
    record = {
        "provenance": run_provenance(str(ROOT)),
        "host": {"usable_cores": len(os.sched_getaffinity(0)),
                 "blas_pin": BLAS_PIN},
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "traced": bool(args.trace), "setup_repeats": SETUP_REPEATS,
        "workloads": results, **closing,
    }
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(closing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
