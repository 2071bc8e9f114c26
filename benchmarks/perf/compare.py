"""Compare two sets of benchmark results under BENCHMARK.json's rules.

    python3 benchmarks/perf/compare.py A B [--self-check]

``A`` (the base) and ``B`` are each a ``result.json`` or a directory
searched for them, so a side may hold many runs.  One row per
(workload, metric): each side's median, the ratio B/A, and a verdict —

* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``better``: better by more than the bound, or every run of B beats
  every run of A;
* ``unresolved``: within the bound, but a side's own runs spread
  (quartile distance over median) wider than the bound;
* ``same``: within the bound and resolved.

Exits 1 on any ``worse`` row or a higher failed share in B.
``--self-check`` is for two sets of runs of one commit: it also fails
when a seed both sides ran gives different ``state_digest`` or
``outcome_counts``, or when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_side(path: Path) -> list[dict]:
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result.json under {path}")
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def spread(values: list[float]) -> float | None:
    """Quartile distance over median, or ``None`` below four runs."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def collect(runs: list[dict]) -> tuple[dict, dict, dict]:
    """(workload, metric) -> values; workload -> [attempted, failed];
    (workload, seed) -> (state_digest, outcome_counts)."""
    values: dict = defaultdict(list)
    counts: dict = defaultdict(lambda: [0, 0])
    outputs: dict = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, value in result["metrics"].items():
                if value is not None:
                    values[workload, metric].append(value)
            counts[workload][0] += result["attempted"]
            counts[workload][1] += result["failed"]
            outputs[workload, run["seed"]] = (
                result["state_digest"], result["outcome_counts"])
    return values, counts, outputs


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """The row's verdict and the signed worsening (positive = worse) as
    a share of the base median."""
    a, b = statistics.median(base), statistics.median(new)
    worsening = (b - a) / abs(a) if a else 0.0
    if better == "higher":
        worsening = -worsening
    if bound is None:
        return "reported", worsening
    if worsening > bound:
        return "worse", worsening
    all_better = max(new) < min(base) if better == "lower" \
        else min(new) > max(base)
    if worsening < -bound or (all_better and len(base) > 1 and len(new) > 1):
        return "better", worsening
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", worsening
    return "same", worsening


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base_values, base_counts, base_outputs = collect(load_side(args.base))
    new_values, new_counts, new_outputs = collect(load_side(args.new))
    problems: list[str] = []
    print(f"{'workload':<20}{'metric':<34}{'base':>12}{'new':>12}"
          f"{'new/base':>10}  verdict")
    for key in sorted(base_values):
        if key not in new_values:
            continue
        workload, metric = key
        rule = rules.get(metric)
        if rule is None:
            continue
        base, new = base_values[key], new_values[key]
        status, worsening = verdict(base, new, rule["better"],
                                    rule.get("bound"))
        a, b = statistics.median(base), statistics.median(new)
        spreads = "/".join("-" if s is None else f"{s:.3f}"
                           for s in (spread(base), spread(new)))
        print(f"{workload:<20}{metric:<34}{a:>12.5g}{b:>12.5g}"
              f"{(b / a if a else float('nan')):>10.3f}  {status}"
              f" (n {len(base)}/{len(new)}, spread {spreads},"
              f" bound {rule.get('bound', '-')})")
        disagree = args.self_check and rule.get("bound") is not None \
            and abs(worsening) > rule["bound"]
        if status == "worse" or disagree:
            problems.append(f"{workload} {metric}: differs by {worsening:+.1%} "
                            f"of base {a:.5g} (bound {rule['bound']:.0%})")

    for workload in sorted(base_counts):
        if workload not in new_counts:
            continue
        (a_n, a_f), (b_n, b_f) = base_counts[workload], new_counts[workload]
        print(f"{workload:<20}failed {a_f} of {a_n} -> {b_f} of {b_n}")
        if b_f / b_n > a_f / a_n:
            problems.append(f"{workload}: failed share rose from "
                            f"{a_f}/{a_n} to {b_f}/{b_n}")
        if args.self_check and (a_f or b_f):
            problems.append(f"{workload}: {a_f + b_f} operations failed")
    for key in sorted(set(base_outputs) & set(new_outputs)):
        if base_outputs[key] != new_outputs[key]:
            line = (f"{key[0]} seed {key[1]}: state_digest or outcome_counts "
                    f"differ")
            print(line)
            if args.self_check:
                problems.append(line)

    for problem in problems:
        print(f"REGRESSION: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
