"""Parallel campaign-execution engine (Sec. 3.3 scale-out).

The paper's characterization required >2.9M fault-injection experiments
across fleets of accelerators; this subsystem provides the orchestration
layer that makes such campaigns practical: a :class:`CampaignEngine`
that fans seeded work units out over a forked worker pool with
per-experiment timeout/retry/quarantine, a persistent append-only
:class:`ResultStore` that makes runs resumable and mergeable, and
progress telemetry (throughput, outcome breakdown, ETA, worker health).

``Campaign`` and ``InferenceCampaign`` submit work units here through
one helper; the engine itself is payload-agnostic.  It leases units to a
runner in lists of one or more (``EngineConfig.block_size``) and one
function, :func:`~repro.engine.worker.run_lease`, executes a lease on
the worker and the in-process path alike.
"""

from repro.engine.monitor import (
    collect,
    render_html,
    render_markdown,
    render_text,
    snapshot_dict,
)
from repro.engine.scheduler import CampaignEngine, EngineConfig, EngineReport
from repro.engine.store import (
    EXPERIMENT,
    QUARANTINE,
    STORE_SCHEMA_VERSION,
    ResultStore,
    experiment_key,
    merge_stores,
    read_records,
)
from repro.engine.telemetry import CampaignState, ProgressTracker, WorkerState
from repro.engine.worker import UnitCapture, WorkUnit

__all__ = [
    "EXPERIMENT",
    "QUARANTINE",
    "STORE_SCHEMA_VERSION",
    "CampaignEngine",
    "CampaignState",
    "EngineConfig",
    "EngineReport",
    "ProgressTracker",
    "ResultStore",
    "UnitCapture",
    "WorkUnit",
    "WorkerState",
    "collect",
    "experiment_key",
    "merge_stores",
    "read_records",
    "render_html",
    "render_markdown",
    "render_text",
    "snapshot_dict",
]
