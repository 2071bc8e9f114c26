"""Re-running a :class:`~repro.replay.record.ReplayRecord` bit-for-bit.

A replay rebuilds the campaign from its recorded config (same workload,
seeds, warm-up snapshot, reference run, classifier), re-runs the one
recorded fault, and verifies the replayed outcome / final-state digest /
event stream against what the trace stored.  Outcomes and state bytes
are backend-invariant (pinned by the golden traces), so a replay may run
on a different backend than the recording — the default is the recorded
one.

Campaign preparation (warm-up + reference training) dominates replay
cost, so :class:`CampaignCache` shares one prepared campaign across all
records with the same (config, backend) — the common case for a corpus
sampled from a single campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.faults.campaign import Campaign
from repro.core.faults.serialization import fault_from_dict
from repro.engine.store import experiment_key
from repro.observe.tracer import Tracer
from repro.replay.record import (
    ReplayError,
    ReplayRecord,
    events_digest,
    normalize_events,
)


@dataclass
class ReplayReport:
    """Outcome of replaying one record."""

    key: str
    backend: str
    outcome_recorded: str | None
    outcome_replayed: str
    arena_recorded: str | None
    arena_replayed: str | None
    #: ``None`` when event verification was not requested.
    events_match: bool | None = None
    events_recorded_sha256: str | None = None
    events_replayed_sha256: str | None = None
    #: Human-readable mismatch descriptions, empty on a clean replay.
    mismatches: list[str] = field(default_factory=list)

    @property
    def outcome_match(self) -> bool:
        return self.outcome_recorded == self.outcome_replayed

    @property
    def arena_match(self) -> bool | None:
        if self.arena_recorded is None or self.arena_replayed is None:
            return None
        return self.arena_recorded == self.arena_replayed

    @property
    def ok(self) -> bool:
        return not self.mismatches


class CampaignCache:
    """Prepared campaigns keyed by (config, backend), shared per replay
    session so the warm-up baseline is trained once per distinct config."""

    def __init__(self):
        self._cache: dict[tuple[str, str], Campaign] = {}

    def get(self, config: dict, backend: str) -> Campaign:
        cache_key = (json.dumps(config, sort_keys=True), backend)
        campaign = self._cache.get(cache_key)
        if campaign is None:
            # Replays run one experiment at a time; batch==solo equality
            # is pinned by tests, so experiment_batch is always 1 here.
            campaign = Campaign.from_config(config, backend=backend,
                                            experiment_batch=1)
            self._cache[cache_key] = campaign
        return campaign


def verify_key(record: ReplayRecord) -> None:
    """Check the record's key against its content (index x fault).

    Keys are content hashes; a mismatch means the trace was edited or
    mis-merged, and replaying it would silently verify the wrong
    experiment.
    """
    expected = experiment_key(record.index, record.fault)
    if expected != record.key:
        raise ReplayError(
            f"experiment key {record.key!r} does not match its recorded "
            f"payload (content key {expected!r}); the trace record was "
            "altered or corrupted")


def replay(record: ReplayRecord, *, backend: str | None = None,
           verify_trace: bool = False,
           cache: CampaignCache | None = None) -> ReplayReport:
    """Re-run one record and verify it against its stored results."""
    verify_key(record)
    resolved_backend = backend or record.backend
    cache = cache or CampaignCache()
    campaign = cache.get(record.config, resolved_backend)
    fault = fault_from_dict(record.fault)

    tracer = Tracer() if verify_trace else None
    result = campaign.run_experiment(fault, tracer=tracer)

    report = ReplayReport(
        key=record.key,
        backend=resolved_backend,
        outcome_recorded=record.outcome,
        outcome_replayed=result.outcome.value,
        arena_recorded=record.arena_sha256,
        arena_replayed=result.arena_sha256,
    )
    if not report.outcome_match:
        report.mismatches.append(
            f"outcome flip: recorded {record.outcome!r}, replayed "
            f"{result.outcome.value!r}")
    if report.arena_match is False:
        report.mismatches.append(
            f"final training state diverged: recorded arena "
            f"{record.arena_sha256[:12]}..., replayed "
            f"{result.arena_sha256[:12]}...")

    if verify_trace:
        replayed_lines = normalize_events(tracer.events())
        report.events_replayed_sha256 = events_digest(replayed_lines)
        report.events_recorded_sha256 = record.events_sha256
        if record.events_sha256 is None:
            report.events_match = False
            report.mismatches.append(
                "the record stores no training events to verify against "
                "(its trace was written by a block lease before those "
                "kept per-experiment events); re-record the campaign")
        elif record.events:
            report.events_match = record.events == replayed_lines
            if not report.events_match:
                report.mismatches.append(
                    _first_event_divergence(record.events, replayed_lines))
        else:
            report.events_match = (
                record.events_sha256 == report.events_replayed_sha256)
            if not report.events_match:
                report.mismatches.append(
                    f"event stream diverged: recorded digest "
                    f"{record.events_sha256[:12]}..., replayed "
                    f"{report.events_replayed_sha256[:12]}...")
    return report


def _first_event_divergence(recorded: list[str], replayed: list[str]) -> str:
    for i, (a, b) in enumerate(zip(recorded, replayed)):
        if a != b:
            return (f"event stream diverged at event {i}: recorded "
                    f"{a:.120} vs replayed {b:.120}")
    return (f"event stream diverged in length: recorded {len(recorded)} "
            f"events, replayed {len(replayed)}")
