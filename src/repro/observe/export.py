"""Exposition formats for telemetry samples.

A :class:`~repro.observe.timeseries.TelemetrySample` renders two ways:

* :func:`render_prometheus` — Prometheus/OpenMetrics text exposition
  (the ``/metrics`` endpoint of :mod:`repro.serve`), with counters as
  ``*_total``, gauges verbatim, and the outcome taxonomy as one labelled
  counter family;
* :func:`render_json` — a deterministic JSON document (sorted keys,
  wall-clock timestamp isolated in one field) for machine diffing.

:func:`validate_exposition` is the parser the tests and the CI smoke
step use to prove every scrape is well-formed: it accepts exactly the
line shapes Prometheus' text format defines and returns the parsed
samples.
"""

from __future__ import annotations

import json
import re

from repro.observe.timeseries import TelemetrySample

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


def metric_name(name: str, prefix: str = PROMETHEUS_PREFIX) -> str:
    """A dotted repro metric name as a valid Prometheus metric name."""
    flat = _SANITIZE.sub("_", name.strip())
    if prefix:
        flat = f"{prefix}_{flat}"
    if not _NAME_OK.match(flat):
        flat = "_" + flat
    return flat


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


def render_prometheus(sample: TelemetrySample | None,
                      prefix: str = PROMETHEUS_PREFIX) -> str:
    """Render one sample as Prometheus text exposition (format 0.0.4).

    Deterministic: families are emitted in sorted order, so two
    renderings of the same sample are byte-identical.  ``sample=None``
    (a scrape before the first sample lands) still yields a valid
    exposition carrying only the ``<prefix>_up`` gauge.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str | None = None) -> str:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        return name

    up = family(metric_name("up", prefix), "gauge",
                "1 while the telemetry endpoint is live")
    lines.append(f"{up} 1")
    if sample is None:
        return "\n".join(lines) + "\n"

    ts = family(metric_name("sample_timestamp_seconds", prefix), "gauge",
                "wall-clock time of the exposed sample")
    lines.append(f"{ts} {_format_value(sample.t)}")

    for name in sorted(sample.gauges):
        fam = family(metric_name(name, prefix), "gauge")
        lines.append(f"{fam} {_format_value(sample.gauges[name])}")

    if sample.outcomes:
        fam = family(metric_name("campaign.outcome", prefix) + "_total",
                     "counter", "completed experiments per Table 3 outcome")
        for label in sorted(sample.outcomes):
            lines.append(f'{fam}{{outcome="{_escape_label(label)}"}} '
                         f"{_format_value(sample.outcomes[label])}")

    for name in sorted(sample.counters):
        fam = family(metric_name(name, prefix) + "_total", "counter")
        lines.append(f"{fam} {_format_value(sample.counters[name])}")

    for name in sorted(sample.rates):
        fam = family(metric_name(name, prefix) + "_rate", "gauge",
                     "per-second rate derived between consecutive samples")
        lines.append(f"{fam} {_format_value(sample.rates[name])}")

    return "\n".join(lines) + "\n"


def render_json(sample: TelemetrySample | None,
                meta: dict | None = None) -> dict:
    """A deterministic JSON document for one sample.

    Key order is stable (callers dump with ``sort_keys=True``) and the
    wall-clock stamp is isolated in ``t`` so consumers can strip it for
    byte-diffing two snapshots of the same state.
    """
    if sample is None:
        return {"schema": 1, "meta": dict(meta or {}), "sample": None}
    return {
        "schema": 1,
        "meta": dict(meta or {}),
        "t": sample.t,
        "sample": {
            "gauges": dict(sorted(sample.gauges.items())),
            "counters": dict(sorted(sample.counters.items())),
            "rates": dict(sorted(sample.rates.items())),
            "outcomes": dict(sorted(sample.outcomes.items())),
        },
    }


def dumps_json(sample: TelemetrySample | None,
               meta: dict | None = None) -> str:
    return json.dumps(render_json(sample, meta), indent=2, sort_keys=True)


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
