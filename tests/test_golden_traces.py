"""Golden-trace regression: the fused state layer must be numerically
invisible.

``tests/data/golden_traces.json`` holds convergence traces (loss,
accuracy, gradient-history magnitude, mvar magnitude, test accuracy)
recorded **before** the ``repro.state`` refactor, stored as ``float.hex``
strings so the comparison is bit-exact, plus a sha256 digest over the
final parameter / optimizer-slot / extra-state bytes.  Any change that
perturbs a single ULP anywhere in the training loop fails here.
"""

import json
from pathlib import Path

import pytest

from repro.distributed import SyncDataParallelTrainer
from repro.observe import ITERATION_STATS, Tracer
from repro.state import training_state_digest as state_digest
from repro.workloads import build_workload, workload_names

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"

TRACE_FIELDS = [
    ("loss", "train_loss"),
    ("acc", "train_acc"),
    ("hist", "history_magnitude"),
    ("mvar", "mvar_magnitude"),
    ("test_acc", "test_acc"),
]


def load_cases():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    return golden["cases"]


@pytest.mark.parametrize("backend", ["inprocess", "batched", "forced-solo"])
@pytest.mark.parametrize("case", load_cases(), ids=lambda c: c["workload"])
def test_training_is_bit_identical_to_golden_trace(case, backend, forced_solo):
    """Both backend names and the forced solo loop must reproduce the
    pre-refactor traces: the lanes run the same kernels and the same
    central-server reduction these goldens were recorded with (on the
    sequential loop, which ``forced-solo`` still is)."""
    spec = build_workload(case["workload"], size="tiny", seed=0)
    solo = backend == "forced-solo"
    with forced_solo(solo):
        trainer = SyncDataParallelTrainer(
            spec,
            num_devices=case["num_devices"],
            seed=0,
            test_every=case["test_every"],
            backend="inprocess" if solo else backend,
        )
    assert not (solo and trainer.backend.group.vectorized)
    # The golden traces were recorded pre-refactor; this run must take
    # the fused path to prove the fused path is numerically invisible.
    assert trainer.arenas is not None, "state arena was not built"

    try:
        trainer.train(case["iterations"])
    finally:
        trainer.close()

    record = trainer.record
    for field, attr in TRACE_FIELDS:
        got = [float(v).hex() for v in getattr(record, attr)]
        assert got == case[field], (
            f"{case['workload']}: {attr} trace diverged from golden "
            f"(first mismatch at index "
            f"{next(i for i, (a, b) in enumerate(zip(case[field], got)) if a != b)})"
        )
    assert state_digest(trainer) == case["state_sha256"], (
        f"{case['workload']}: final state digest diverged from golden"
    )


# ----------------------------------------------------------------------
# Differential: the observability layer must be numerically invisible
# ----------------------------------------------------------------------
DIFFERENTIAL_ITERATIONS = 3


def _hex_trace(record) -> dict[str, list]:
    return {
        attr: [None if v is None else float(v).hex()
               for v in getattr(record, attr)]
        for _, attr in TRACE_FIELDS
    }


def _run_workload(workload: str, tracer: Tracer | None):
    spec = build_workload(workload, size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0,
                                      test_every=2, tracer=tracer)
    trainer.train(DIFFERENTIAL_ITERATIONS)
    return trainer


@pytest.mark.parametrize("workload", workload_names())
def test_tracing_is_numerically_invisible(workload):
    """Every registry workload, traced vs untraced, must produce
    bit-identical loss/accuracy/condition traces and final state: the
    tracer only reads values the loop already computed."""
    tracer = Tracer()
    traced = _run_workload(workload, tracer)
    untraced = _run_workload(workload, None)

    assert _hex_trace(traced.record) == _hex_trace(untraced.record), (
        f"{workload}: tracing perturbed the convergence record"
    )
    assert state_digest(traced) == state_digest(untraced), (
        f"{workload}: tracing perturbed the final training state"
    )
    # And the trace itself carries the iteration statistics, bit-exact.
    stats = tracer.events(ITERATION_STATS)
    assert [e.iteration for e in stats] == list(range(DIFFERENTIAL_ITERATIONS))
    assert [float(e.data["loss"]).hex() for e in stats] == \
        [float(v).hex() for v in traced.record.train_loss]
