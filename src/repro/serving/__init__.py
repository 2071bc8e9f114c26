"""Fault-injected inference serving: the live-traffic request path.

It runs on the model the offline
:class:`~repro.core.faults.campaign.InferenceCampaign` probes (one
:class:`~repro.core.faults.session.InferenceSession`) and serves an
in-process request stream — queueing, dynamic batching, backpressure —
while the fault plane arms forward-site faults in-flight at a Poisson
rate; ``ServingEngine.summary`` reports latency, shed rate and silent
corruptions per million.
"""

from repro.serving.batcher import DynamicBatcher, ShedError
from repro.serving.server import ServingEngine
from repro.serving.session import FaultPlane, InferenceSession

__all__ = [
    "DynamicBatcher",
    "FaultPlane",
    "InferenceSession",
    "ServingEngine",
    "ShedError",
]
