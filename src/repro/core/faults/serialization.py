"""JSON serialization for fault descriptors and experiment results.

Campaigns at paper scale run for node-years; results must be stored and
merged across machines.  This module round-trips
:class:`HardwareFault` / :class:`ExperimentResult` through plain JSON
(no pickle — results may be exchanged between untrusted machines); the
one on-disk format holding them is the
:class:`~repro.engine.store.ResultStore`.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis.classify import Outcome, OutcomeReport
from repro.core.faults.campaign import ExperimentResult
from repro.core.faults.hardware import HardwareFault, OpSite
from repro.core.faults.software_models import PinnedMagnitude


def _json_safe(value):
    """Map inf/NaN to strings (JSON has no literals for them)."""
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _from_json_number(value):
    """Inverse of :func:`_json_safe`.

    Only the three sentinel strings the writer emits are accepted; any
    other string means the document was hand-edited or written by an
    incompatible serializer, and silently coercing it (the old
    ``float(value)`` fallback) would misparse e.g. ``"NaN"`` or ``"1e3"``
    written by another tool.
    """
    if isinstance(value, str):
        if value == "nan":
            return float("nan")
        if value == "inf":
            return float("inf")
        if value == "-inf":
            return float("-inf")
        raise ValueError(
            f"unrecognized serialized number {value!r}; expected 'nan', "
            f"'inf', '-inf', or a JSON number")
    return float(value)


# ----------------------------------------------------------------------
# Fault descriptors
# ----------------------------------------------------------------------
def fault_to_dict(fault: HardwareFault) -> dict:
    out = {
        "ff": {
            "category": fault.ff.category,
            "group": fault.ff.group,
            "bit": fault.ff.bit,
            "has_feedback": fault.ff.has_feedback,
        },
        "site": {"module_name": fault.site.module_name, "kind": fault.site.kind},
        "iteration": fault.iteration,
        "device": fault.device,
        "seed": fault.seed,
    }
    # Additive: a sampled fault's dict, and so its experiment key, is
    # what it was before pinned faults existed.
    if fault.pinned is not None:
        out["pinned"] = {"magnitude": float(fault.pinned.magnitude),
                         "elements": int(fault.pinned.elements),
                         "coherent": bool(fault.pinned.coherent)}
    return out


def fault_from_dict(data: dict) -> HardwareFault:
    ff = FFDescriptor(
        category=data["ff"]["category"],
        group=data["ff"]["group"],
        bit=data["ff"]["bit"],
        has_feedback=bool(data["ff"]["has_feedback"]),
    )
    site = OpSite(data["site"]["module_name"], data["site"]["kind"])
    pinned = data.get("pinned")
    if pinned is not None:
        pinned = PinnedMagnitude(magnitude=float(pinned["magnitude"]),
                                 elements=int(pinned["elements"]),
                                 coherent=bool(pinned["coherent"]))
    return HardwareFault(ff=ff, site=site, iteration=int(data["iteration"]),
                         device=int(data["device"]), seed=int(data["seed"]),
                         pinned=pinned)


# ----------------------------------------------------------------------
# Experiment results
# ----------------------------------------------------------------------
def experiment_to_dict(result: ExperimentResult) -> dict:
    out = {
        "fault": fault_to_dict(result.fault),
        "outcome": result.outcome.value,
        "final_train_delta": _json_safe(result.report.final_train_delta),
        "final_test_delta": _json_safe(result.report.final_test_delta),
        "sharp_drop": result.report.sharp_drop_at_injection,
        "num_faulty_elements": result.num_faulty_elements,
        "max_abs_faulty": _json_safe(result.max_abs_faulty),
        "condition_window": {k: _json_safe(v)
                             for k, v in result.condition_window.items()},
    }
    # Additive (schema stays v1): pre-replay records simply lack it.
    if result.arena_sha256 is not None:
        out["arena_sha256"] = result.arena_sha256
    return out


def experiment_from_dict(data: dict) -> ExperimentResult:
    report = OutcomeReport(
        outcome=Outcome(data["outcome"]),
        injection_iteration=int(data["fault"]["iteration"]),
        final_train_delta=_from_json_number(data["final_train_delta"]),
        final_test_delta=_from_json_number(data["final_test_delta"]),
        sharp_drop_at_injection=bool(data["sharp_drop"]),
        details={},
    )
    return ExperimentResult(
        fault=fault_from_dict(data["fault"]),
        report=report,
        num_faulty_elements=int(data["num_faulty_elements"]),
        max_abs_faulty=_from_json_number(data["max_abs_faulty"]),
        condition_window={k: _from_json_number(v)
                          for k, v in data["condition_window"].items()},
        arena_sha256=data.get("arena_sha256"),
    )
