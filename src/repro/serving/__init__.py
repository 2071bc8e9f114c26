"""Fault-injected inference serving: the live-traffic request path.

Where :class:`~repro.core.faults.campaign.InferenceCampaign` probes
inference offline (one fault per controlled forward), this package
serves a real request stream — queueing, dynamic batching, backpressure
— while the fault plane arms forward-site faults in-flight at a Poisson
rate, and reports what users would actually see: p50/p99 latency,
shed rate, and silent corruptions per million requests.
"""

from repro.serving.batcher import DynamicBatcher, ShedError
from repro.serving.loadgen import render_loadgen, run_loadgen
from repro.serving.server import (
    DEFAULT_SERVING_RULES,
    ServingEngine,
    run_service,
    serving_routes,
)
from repro.serving.session import FaultPlane, InferenceSession

__all__ = [
    "DEFAULT_SERVING_RULES",
    "DynamicBatcher",
    "FaultPlane",
    "InferenceSession",
    "ServingEngine",
    "ShedError",
    "run_loadgen",
    "render_loadgen",
    "run_service",
    "serving_routes",
]
