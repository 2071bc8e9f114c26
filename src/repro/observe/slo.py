"""Declarative SLO rules with sustained-for and hysteresis semantics.

A threshold that trips on one noisy sample is an alarm nobody trusts.
Rules here evaluate over successive samples: a breach must hold
continuously for ``for_seconds`` before the rule fires, and a firing
rule only resolves once the metric clears the threshold by the
``hysteresis`` fraction — the standard flap-damping pair.

A rule file is JSON — either a list of rule objects or
``{"rules": [...]}``::

    [{"name": "quarantine-rate",
      "metric": "campaign.quarantine_rate",
      "max": 0.10, "for_seconds": 10, "hysteresis": 0.2,
      "severity": "critical"},
     {"name": "throughput-floor",
      "metric": "campaign.throughput",
      "min": 0.5, "for_seconds": 30, "severity": "warning"}]

``metric`` addresses the flat namespace of
:meth:`~repro.engine.telemetry.CampaignState.flat`: its gauges (like
``campaign.divergence_rate`` or ``workers.stalled``) plus one
``outcome.<label>`` tally per outcome (like ``outcome.latent_inf_nan``).
Exactly one bound (``max`` or ``min``) per rule.

:class:`SLOEngine` is the only thing that turns an observation into an
exit code: ``repro monitor`` in every mode holds one engine across the
polls of its watch and exits 1 iff
:meth:`SLOEngine.breached` names a ``critical`` rule that fired at any
poll.  A threshold on one gauge is a one-rule file.  A watch of a
single poll (``monitor --once``, ``--json``) cannot sustain a
``for_seconds > 0`` rule: such a rule reports ``pending`` there and does
not gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Recognized rule severities, in increasing order of consequence:
#: ``warning`` rules report but never gate an exit code; ``critical``
#: rules turn a sustained breach into a nonzero campaign exit.
SEVERITIES = ("warning", "critical")

#: Rule evaluation states.
OK = "ok"
PENDING = "pending"       # breaching, but not yet for ``for_seconds``
FIRING = "firing"
NO_DATA = "no_data"       # the metric is absent from the sample

_RULE_KEYS = {"name", "metric", "max", "min", "for_seconds", "hysteresis",
              "severity", "description"}


class SLOConfigError(ValueError):
    """Raised for malformed rule documents."""


@dataclass(frozen=True)
class SLORule:
    """One declarative threshold rule."""

    name: str
    metric: str
    #: Upper bound: the rule breaches while ``value > max``.
    max: float | None = None
    #: Lower bound: the rule breaches while ``value < min``.
    min: float | None = None
    #: The breach must hold continuously this long before firing.
    for_seconds: float = 0.0
    #: Fraction of the threshold the metric must clear by to resolve a
    #: firing rule (0 = resolve as soon as the predicate stops holding).
    hysteresis: float = 0.0
    severity: str = "critical"
    description: str = ""

    def __post_init__(self):
        if (self.max is None) == (self.min is None):
            raise SLOConfigError(
                f"rule {self.name!r}: exactly one of 'max'/'min' is required")
        if self.for_seconds < 0:
            raise SLOConfigError(
                f"rule {self.name!r}: for_seconds must be >= 0")
        if not 0.0 <= self.hysteresis < 1.0:
            raise SLOConfigError(
                f"rule {self.name!r}: hysteresis must be in [0, 1)")
        if self.severity not in SEVERITIES:
            raise SLOConfigError(
                f"rule {self.name!r}: severity {self.severity!r} is not one "
                f"of {SEVERITIES}")
        if not self.name or not self.metric:
            raise SLOConfigError("rules need a non-empty name and metric")

    @property
    def bound(self) -> str:
        return "max" if self.max is not None else "min"

    @property
    def threshold(self) -> float:
        return self.max if self.max is not None else self.min

    def breaches(self, value: float) -> bool:
        if self.max is not None:
            return value > self.max
        return value < self.min

    def clears(self, value: float) -> bool:
        """Whether ``value`` resolves a *firing* rule (hysteresis band)."""
        if self.max is not None:
            return value <= self.max * (1.0 - self.hysteresis)
        return value >= self.min * (1.0 + self.hysteresis)

    @classmethod
    def from_dict(cls, data: dict) -> "SLORule":
        if not isinstance(data, dict):
            raise SLOConfigError(f"rule must be an object, got {data!r}")
        unknown = set(data) - _RULE_KEYS
        if unknown:
            raise SLOConfigError(
                f"rule {data.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)} (allowed: {sorted(_RULE_KEYS)})")
        try:
            return cls(
                name=str(data.get("name", "")),
                metric=str(data.get("metric", "")),
                max=None if data.get("max") is None else float(data["max"]),
                min=None if data.get("min") is None else float(data["min"]),
                for_seconds=float(data.get("for_seconds", 0.0)),
                hysteresis=float(data.get("hysteresis", 0.0)),
                severity=str(data.get("severity", "critical")),
                description=str(data.get("description", "")),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, SLOConfigError):
                raise
            raise SLOConfigError(
                f"rule {data.get('name', '?')!r}: {exc}") from None


@dataclass
class SLOStatus:
    """One rule's evaluation result at one instant."""

    rule: str
    metric: str
    state: str
    value: float | None
    threshold: float
    bound: str
    severity: str
    #: When the current breach started (None unless pending/firing).
    breach_since: float | None = None
    for_seconds: float = 0.0
    description: str = ""

    @property
    def firing(self) -> bool:
        return self.state == FIRING

    def message(self) -> str:
        rel = ">" if self.bound == "max" else "<"
        value = "absent" if self.value is None else f"{self.value:.4g}"
        text = (f"[{self.severity}] {self.rule}: {self.metric}={value} "
                f"{rel} {self.threshold:.4g} ({self.state})")
        if self.state in (PENDING, FIRING) and self.for_seconds > 0:
            text += f" sustained-for={self.for_seconds:.4g}s"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "bound": self.bound,
            "severity": self.severity,
            "breach_since": self.breach_since,
            "for_seconds": self.for_seconds,
            "description": self.description,
        }


def load_rules(path: str | Path) -> list[SLORule]:
    """Load a JSON rule document (a list, or ``{"rules": [...]}``)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SLOConfigError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(document, dict):
        document = document.get("rules")
    if not isinstance(document, list):
        raise SLOConfigError(
            f"{path}: expected a JSON list of rules or an object with a "
            f"'rules' list")
    rules = [SLORule.from_dict(entry) for entry in document]
    names = [rule.name for rule in rules]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise SLOConfigError(
            f"{path}: duplicate rule names {sorted(duplicates)}")
    return rules


class SLOEngine:
    """Stateful rule evaluation over a stream of samples.

    Feed every sample through :meth:`evaluate`; the engine tracks each
    rule's breach window (for sustained-for) and firing state (for
    hysteresis).  ``ever_fired`` accumulates rules that fired at any
    point — the campaign exit gate.
    """

    def __init__(self, rules: list[SLORule]):
        self.rules = list(rules)
        self._breach_since: dict[str, float] = {}
        self._firing: set[str] = set()
        #: Rule names that reached FIRING at least once this run.
        self.ever_fired: set[str] = set()
        #: The most recent evaluation's statuses.
        self.statuses: list[SLOStatus] = []

    def evaluate(self, flat: dict[str, float],
                 now: float) -> list[SLOStatus]:
        """Evaluate every rule against one flat sample at time ``now``."""
        statuses = []
        for rule in self.rules:
            value = flat.get(rule.metric)
            status = SLOStatus(rule=rule.name, metric=rule.metric,
                               state=OK, value=value,
                               threshold=rule.threshold, bound=rule.bound,
                               severity=rule.severity,
                               for_seconds=rule.for_seconds,
                               description=rule.description)
            if value is None:
                # Absent metric: keep a firing rule firing (losing the
                # signal is not evidence of recovery), drop any pending
                # breach window.
                self._breach_since.pop(rule.name, None)
                status.state = FIRING if rule.name in self._firing else NO_DATA
                statuses.append(status)
                continue
            if rule.name in self._firing:
                if rule.clears(value):
                    self._firing.discard(rule.name)
                    self._breach_since.pop(rule.name, None)
                else:
                    status.state = FIRING
                    status.breach_since = self._breach_since.get(rule.name)
                statuses.append(status)
                continue
            if rule.breaches(value):
                since = self._breach_since.setdefault(rule.name, now)
                status.breach_since = since
                if now - since >= rule.for_seconds:
                    self._firing.add(rule.name)
                    self.ever_fired.add(rule.name)
                    status.state = FIRING
                else:
                    status.state = PENDING
            else:
                self._breach_since.pop(rule.name, None)
            statuses.append(status)
        self.statuses = statuses
        return statuses

    def breached(self, severity: str = "critical") -> list[str]:
        """Names of rules of at least ``severity`` that ever fired."""
        floor = SEVERITIES.index(severity)
        by_name = {rule.name: rule for rule in self.rules}
        return sorted(
            name for name in self.ever_fired
            if SEVERITIES.index(by_name[name].severity) >= floor)
