"""Reporting helpers shared by the benchmark harness.

Each benchmark regenerates one table or figure of the paper and emits a
textual version of it.  pytest captures stdout (even file descriptor 1),
so lines are buffered here and flushed by the ``pytest_terminal_summary``
hook in ``benchmarks/conftest.py`` — they appear at the end of
``pytest benchmarks/ --benchmark-only | tee bench_output.txt``.

Benchmarks can additionally persist their measurements as
machine-readable ``BENCH_<name>.json`` artifacts (:func:`write_artifact`)
so CI and trend tooling can track them without scraping the text.

A paper claim is decided once, by :func:`verdict`, from the interval
:func:`paper_vs_measured` builds out of the claim's counts; the record
it returns goes into the bench's artifact under ``claims``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.provenance import run_provenance
from repro.core.analysis import difference_interval, rate_interval
from repro.core.analysis.report import INTERVAL_CONFIDENCE

#: Buffered report lines, flushed at terminal summary.
LINES: list[str] = []

#: One provenance stamp per harness run, shared by every artifact and
#: the text report banner (computed lazily, cached).
_PROVENANCE: dict | None = None


def provenance() -> dict:
    """The run's shared provenance stamp (git SHA, time, host, python)."""
    global _PROVENANCE
    if _PROVENANCE is None:
        _PROVENANCE = run_provenance()
    return _PROVENANCE


def provenance_banner() -> str:
    """One report line identifying where these measurements came from."""
    stamp = provenance()
    return (f"provenance: {stamp['git_sha'][:12]} @ {stamp['timestamp']} "
            f"on {stamp['host']} (python {stamp['python']})")


def write_artifact(name: str, data: dict, smoke: bool) -> Path:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    A full-size run's artifact lands in ``$BENCH_ARTIFACT_DIR`` (default:
    the current working directory); a ``smoke`` run's lands in the
    git-ignored ``.perfbench_out/`` below it, so a reduced CI run can
    never overwrite a committed full-size artifact.  Either way it is
    stamped with ``smoke`` and the run's provenance, and its path is
    echoed into the text report.
    """
    directory = Path(os.environ.get("BENCH_ARTIFACT_DIR", "."))
    if smoke:
        directory /= ".perfbench_out"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    stamped = {**data, "smoke": smoke, "provenance": provenance()}
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    emit(f"artifact -> {path}")
    return path


def emit(text: str = "") -> None:
    """Buffer a report line for the terminal summary."""
    LINES.append(text)


def header(title: str) -> None:
    emit()
    emit("=" * 78)
    emit(title)
    emit("=" * 78)


def table(rows: list[dict], columns: list[str] | None = None,
          floatfmt: str = "{:.4g}") -> None:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        emit("(no rows)")
        return
    columns = columns or list(rows[0])

    def fmt(value) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    emit("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    emit("  ".join("-" * w for w in widths))
    for row in rendered:
        emit("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


#: The verdict words, worst first: a bench reads as its worst claim.
VERDICTS = ("DIFF", "PARTIAL", "OK")


def verdict(low: float, high: float, band: tuple) -> str:
    """OK when ``[low, high]`` lies inside ``band``, DIFF when the two
    are disjoint, PARTIAL otherwise.  ``band`` is ``(lo, hi)``; a
    ``None`` end leaves that side open."""
    lo, hi = band
    if (lo is None or low >= lo) and (hi is None or high <= hi):
        return "OK"
    if (lo is not None and high < lo) or (hi is not None and low > hi):
        return "DIFF"
    return "PARTIAL"


def paper_vs_measured(claim: str, paper: str, measured: str, *, band: tuple,
                      counts: tuple | None = None,
                      value: float | None = None) -> dict:
    """Decide one paper claim against the paper's ``band``, report it,
    and return its record for the bench's artifact.

    The measured interval comes from ``counts``: ``(hits, n)`` gives the
    99 % Wilson interval of the rate, ``((a_hits, a_n), (b_hits, b_n))``
    the Newcombe interval of the difference of two rates.  A ``value``
    (a timing, a ratio) is the interval ``[value, value]`` with no n.
    A zero-width band (``(1, 1)``: "every") is judged on the point
    estimate; the record still carries the interval and its n.
    """
    if (counts is None) == (value is None):
        raise ValueError("a claim is measured by counts or by a value")
    if value is not None:
        estimate = low = high = float(value)
        n = None
    elif isinstance(counts[0], tuple):
        (a_hits, a_n), (b_hits, b_n) = counts
        estimate = a_hits / a_n - b_hits / b_n
        low, high = difference_interval(a_hits, a_n, b_hits, b_n,
                                        INTERVAL_CONFIDENCE)
        n = [a_n, b_n]
    else:
        hits, n = counts
        interval = rate_interval(hits, n)
        estimate, low, high = hits / n, interval["low"], interval["high"]
    point = band[0] is not None and band[0] == band[1]
    word = verdict(estimate if point else low, estimate if point else high,
                   band)
    emit(f"[{word}] {claim}")
    emit(f"       paper:    {paper}")
    emit(f"       measured: {measured}")
    emit(f"       band {list(band)} vs {estimate:.4g} [{low:.4g}, "
         f"{high:.4g}] (n={n})")
    return {"claim": claim, "paper": paper, "measured": measured,
            "band": list(band), "n": n, "estimate": estimate,
            "low": low, "high": high, "verdict": word}
