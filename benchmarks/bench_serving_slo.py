"""Serving SDC and recovery work vs in-flight fault rate (``repro.serving``).

Sweeps the fault plane's Poisson rate over the live request path —
dynamic batcher, vectorized forward, full shadow detection, batch
recovery — and records what each rate costs in correctness terms:
detected silent corruptions over responses (estimate, 99 % Wilson
interval and n, printed as ``estimate [lo, hi] (n=...)``) and per
million requests, faults fired, shadow re-executions, recovered batches
and the shed rate.  The zero-fault row
is the control and must show **zero** SDCs.  Latency and throughput
under the same fault plane are measured by the repo benchmark's
``serve_clean`` / ``serve_faulty`` workloads (``benchmarks/perf/run.py``),
not here: this drive is open-loop at a fixed offered rate, so its
throughput is the offered rate and its histogram quantiles are bucket
edges.

Run under pytest or as a script; ``--smoke`` shrinks the sweep for CI::

    PYTHONPATH=src python benchmarks/bench_serving_slo.py --smoke
"""

from __future__ import annotations

import asyncio

from _report import emit, header, paper_vs_measured, table, write_artifact
from repro.core.analysis import rates_with_intervals, render_rate
from repro.serving import InferenceSession, ServingEngine
from repro.workloads import build_workload

FAULT_RATES = (0.0, 0.05, 0.2, 0.5)
REQUESTS = 400
RPS = 200.0
TRAIN_ITERATIONS = 8
MAX_BATCH = 8


async def _drive(engine: ServingEngine, requests: int, rps: float) -> dict:
    """Open-loop drive of one engine (no TCP; the request path only)."""
    collector = asyncio.ensure_future(engine.batcher.run())
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    num_samples = engine.session.num_samples

    async def one(i: int):
        delay = (start + i / rps) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await engine.predict(i % num_samples)

    await asyncio.gather(*(one(i) for i in range(requests)))
    engine.batcher.stop()
    await collector
    return engine.summary()


def _sweep(rates, requests: int, rps: float,
           train_iterations: int) -> list[dict]:
    spec = build_workload("resnet", size="tiny", seed=0)
    session = InferenceSession(spec, seed=0,
                               train_iterations=train_iterations,
                               num_devices=2)
    rows = []
    for rate in rates:
        engine = ServingEngine(session, fault_rate=rate, seed=17,
                               max_batch=MAX_BATCH, max_wait_s=0.002,
                               shadow_rate=1.0, recover=True)
        summary = asyncio.run(_drive(engine, requests, rps))
        sdc, responses = summary["outcomes"]["sdc"], summary["responses"]
        rows.append({
            "fault_rate": rate,
            "requests": summary["requests"],
            "responses": responses,
            "shed": summary["shed"],
            # Detected SDCs over responses, with n and a Wilson interval
            # (shaped like a report dict, so render_rate prints it).
            **rates_with_intervals({"sdc_rate": (sdc, responses)}),
            "sdc_per_million": summary["sdc_per_million"],
            "shed_rate": summary["shed_rate"],
            "faults_fired": summary["faults_fired"],
            "shadow_execs": summary["shadow_execs"],
            "recovered_batches": summary["recovered_batches"],
            "outcomes": summary["outcomes"],
        })
    return rows


def _report_and_check(rows: list[dict], requests: int, rps: float,
                      smoke: bool = False) -> None:
    header(f"repro.serving — SDC/recovery vs fault rate "
           f"({requests} requests @ {rps:g} rps, resnet/tiny, "
           f"max-batch {MAX_BATCH}, full shadow, recovery on)")
    table([{**row, "sdc_rate": render_rate(row, "sdc_rate")} for row in rows],
          columns=["fault_rate", "sdc_rate", "sdc_per_million",
                   "faults_fired", "shadow_execs", "recovered_batches",
                   "shed_rate"])
    emit()
    control = rows[0]
    faulty = [r for r in rows if r["fault_rate"] > 0]
    detected = sum(r["outcomes"]["sdc"] + r["outcomes"]["nonfinite"]
                   for r in faulty)
    claim = paper_vs_measured(
        "inference has no iteration-to-iteration recovery, so in-flight "
        "faults surface directly in responses (Table 5)",
        "fault-free serving is corruption-free; faulty serving needs "
        "detection + re-execution to stay so",
        f"0 faults -> SDC rate {render_rate(control, 'sdc_rate')}; swept rates "
        f"detected {detected} corrupt rows and recovered "
        f"{sum(r['recovered_batches'] for r in faulty)} batches",
        band=(0, 0), counts=(control["outcomes"]["sdc"],
                             control["responses"]),
    )
    write_artifact("serving_slo", {
        "workload": "resnet/tiny",
        "requests_per_rate": requests,
        "rps": rps,
        "max_batch": MAX_BATCH,
        "shadow_rate": 1.0,
        "recover": True,
        "rows": rows,
        "claims": [claim],
    }, smoke=smoke)
    assert control["fault_rate"] == 0.0
    assert control["sdc_per_million"] == 0.0, (
        "zero-fault serving reported SDCs: the control is corrupt")
    assert control["outcomes"] == {"masked": 0, "sdc": 0, "nonfinite": 0}
    assert all(r["responses"] + r["shed"] == r["requests"] for r in rows), (
        "requests leaked: responses + shed != submitted")
    assert all(r["intervals"]["sdc_rate"]["n"] == r["responses"]
               and r["intervals"]["sdc_rate"]["low"] <= r["sdc_rate"]
               <= r["intervals"]["sdc_rate"]["high"] for r in rows)
    assert any(r["faults_fired"] > 0 for r in faulty), (
        "the sweep never fired a fault; rates are too low for the "
        "request volume")


def bench_serving_slo(benchmark):
    rows = _sweep(FAULT_RATES, REQUESTS, RPS, TRAIN_ITERATIONS)
    _report_and_check(rows, REQUESTS, RPS)
    # The benchmarked quantity: one batched forward on the hot path.
    spec = build_workload("resnet", size="tiny", seed=0)
    session = InferenceSession(spec, seed=0, train_iterations=2,
                               num_devices=2)
    batch = session.gather(list(range(MAX_BATCH)))
    benchmark(lambda: session.forward(batch))


def main(argv: list[str] | None = None) -> int:
    """Script entry point (CI runs ``--smoke``)."""
    import argparse

    import _report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI")
    args = parser.parse_args(argv)
    if args.smoke:
        rows = _sweep((0.0, 0.5), requests=120, rps=120.0,
                      train_iterations=4)
        _report_and_check(rows, 120, 120.0, smoke=True)
    else:
        rows = _sweep(FAULT_RATES, REQUESTS, RPS, TRAIN_ITERATIONS)
        _report_and_check(rows, REQUESTS, RPS)
    for line in _report.LINES:
        print(line)
    _report.LINES.clear()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
