"""Exposition formats for a campaign observation.

A :class:`~repro.engine.telemetry.CampaignState` renders two ways:

* :func:`render_prometheus` — Prometheus/OpenMetrics text exposition
  (the ``/metrics`` endpoint of :mod:`repro.serve`): its gauges
  verbatim, and the outcome taxonomy as one labelled counter family;
* :func:`dumps_json` — a deterministic JSON document (sorted keys,
  wall-clock timestamp isolated in one field) for machine diffing.

:func:`validate_exposition` is the parser the tests and the CI smoke
step use to prove every scrape is well-formed: it accepts exactly the
line shapes Prometheus' text format defines and returns the parsed
samples.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: repro.observe never imports repro.engine
    from repro.engine.telemetry import CampaignState

#: Every exported metric family is prefixed with this namespace.
PROMETHEUS_PREFIX = "repro"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: One exposition sample line: ``name{labels} value [timestamp]``.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?\d+))?$")

_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')

_COMMENT_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def metric_name(name: str) -> str:
    """A dotted repro metric name as a valid Prometheus metric name."""
    return f"{PROMETHEUS_PREFIX}_{_SANITIZE.sub('_', name.strip())}"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(state: CampaignState | None) -> str:
    """Render one observation as Prometheus text exposition (format 0.0.4).

    Deterministic: families are emitted in sorted order, so two
    renderings of the same state are byte-identical.  ``state=None``
    (a scrape before the first poll lands) still yields a valid
    exposition carrying only the ``repro_up`` gauge.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str | None = None) -> str:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        return name

    up = family(metric_name("up"), "gauge",
                "1 while the telemetry endpoint is live")
    lines.append(f"{up} 1")
    if state is None:
        return "\n".join(lines) + "\n"

    ts = family(metric_name("sample_timestamp_seconds"), "gauge",
                "wall-clock time of the exposed sample")
    lines.append(f"{ts} {_format_value(state.observed_at)}")

    gauges = state.gauges()
    for name in sorted(gauges):
        fam = family(metric_name(name), "gauge")
        lines.append(f"{fam} {_format_value(gauges[name])}")

    if state.breakdown:
        fam = family(metric_name("campaign.outcome") + "_total",
                     "counter", "completed experiments per Table 3 outcome")
        for label in sorted(state.breakdown):
            lines.append(f'{fam}{{outcome="{_escape_label(label)}"}} '
                         f"{_format_value(state.breakdown[label])}")

    return "\n".join(lines) + "\n"


def dumps_json(state: CampaignState | None, meta: dict | None = None) -> str:
    """A deterministic JSON document for one observation.

    Keys are sorted and the wall-clock stamp is isolated in ``t`` so
    consumers can strip it for byte-diffing two snapshots of the same
    state.
    """
    doc = {"schema": 1, "meta": dict(meta or {}), "sample": None}
    if state is not None:
        doc["t"] = state.observed_at
        doc["sample"] = {"gauges": state.gauges(),
                         "outcomes": dict(state.breakdown)}
    return json.dumps(doc, indent=2, sort_keys=True)


def validate_exposition(text: str) -> list[tuple[str, dict, float]]:
    """Parse a Prometheus text exposition; raise ``ValueError`` if
    malformed.  Returns ``(name, labels, value)`` per sample line —
    the checker the scrape tests and the CI smoke step rely on.
    """
    parsed: list[tuple[str, dict, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            if not _NAME_OK.match(parts[2]):
                raise ValueError(
                    f"line {lineno}: invalid metric name {parts[2]!r}")
            if parts[1] == "TYPE" and (
                    len(parts) != 4 or parts[3] not in _COMMENT_TYPES):
                raise ValueError(f"line {lineno}: invalid TYPE: {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in _split_labels(raw, lineno):
                pair_match = _LABEL_PAIR.match(pair)
                if pair_match is None:
                    raise ValueError(
                        f"line {lineno}: malformed label {pair!r}")
                labels[pair_match.group("key")] = pair_match.group("value")
        value = match.group("value")
        try:
            parsed.append((match.group("name"), labels,
                           float(value.replace("+Inf", "inf")
                                 .replace("-Inf", "-inf"))))
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparseable value {value!r}") from None
    if not parsed:
        raise ValueError("exposition carries no samples")
    return parsed


def _split_labels(raw: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs, current, in_quotes, escaped = [], [], False, False
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        pairs.append("".join(current))
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    return [p.strip() for p in pairs if p.strip()]
