"""The one record log: every JSONL file the system writes and reads.

Result stores, trace files (worker shards, exports, merged campaign
traces) and telemetry series are one format, written by
:class:`LogWriter` and read by :func:`read`; no other module opens them.

* Line 1 is a header ``{"record": "header", "schema": N, "kind": K,
  "meta": {...}, ...}``.  ``kind`` says which log the file is:
  :data:`TRACE`, :data:`SERIES`, or any other string for a result
  store, whose kind names its runner (``campaign``, ``inference``, ...).
  ``schema`` is that log's :data:`SCHEMA` version.
* Every following line is one JSON object: compact separators, keys in
  insertion order, numpy scalars and arrays as plain JSON values.
* A line is complete once its newline is written.  Bytes after the last
  complete line are a *torn tail* (a writer killed mid-line); so is a
  final line that does not parse.  :func:`read` recovers every record
  before it and reports it; :func:`reopen` cuts it off before appending,
  so a resumed log never glues a record onto it.  A line that does not
  parse anywhere else is a hard error.

Durability follows the log's kind: every store and series record is
``fsync``-ed before :meth:`LogWriter.append` returns, or when the
:meth:`LogWriter.group` it was appended in ends (the engine writes a
lease's results as one group), and a store's engine records
(:meth:`LogWriter.write`) ride the next ``fsync``; trace lines are only
flushed, because worker shards sit on the campaign's hot path and a lost
trace tail costs a story, not a result.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Record tag of the header line.
HEADER = "header"

#: The three logs.  ``TRACE`` and ``SERIES`` are header kinds; ``STORE``
#: is what :func:`read` is asked for a result store of any runner kind.
STORE = "store"
TRACE = "trace"
SERIES = "telemetry_series"

#: Schema version of each log's record layout.  Bump one on an
#: incompatible change to that layout; readers reject versions they do
#: not know.
SCHEMA = {STORE: 1, TRACE: 1, SERIES: 1}


class LogFormatError(ValueError):
    """A file that is not a readable log of the kind asked for."""


class LogSchemaError(LogFormatError):
    """A log written with a schema version this build cannot read."""


def log_of(kind) -> str:
    """The log a header ``kind`` belongs to: ``TRACE``, ``SERIES``, or
    ``STORE`` for any other kind (a store's kind names its runner)."""
    return kind if kind in (TRACE, SERIES) else STORE


def _plain(value):
    """Make numpy scalars/arrays JSON-safe."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_plain)


def dumps(record) -> str:
    """One record as its log line, without the newline."""
    return _ENCODER.encode(record)


@dataclass
class Log:
    """A parsed log file."""

    path: Path
    header: dict
    #: Every complete record after the header, in file order.
    records: list[dict]
    #: True when the file ended in a torn tail (dropped from ``records``).
    torn: bool
    #: Byte offset just past the last complete line: where an append goes.
    end: int


def read(path: str | Path, kind: str) -> Log:
    """Parse the log at ``path``, which must be a ``kind`` log
    (``STORE``, ``TRACE`` or ``SERIES``) of a known schema version;
    raises :class:`LogFormatError` (or :class:`LogSchemaError`)."""
    path = Path(path)
    noun = "series" if kind == SERIES else kind
    data = path.read_bytes()
    if not data:
        raise LogFormatError(f"{path}: empty {noun} file")
    end = data.rfind(b"\n") + 1
    torn = end < len(data)
    lines = data[:end].split(b"\n")[:-1]
    records: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # also a UnicodeDecodeError
            record = None
        if not isinstance(record, dict):
            if lineno < len(lines) or torn:
                raise LogFormatError(
                    f"{path}:{lineno}: corrupt {noun} record")
            torn = True  # the final line was cut before it could parse
            end -= len(line) + 1
            continue
        records.append(record)
    header = records[0] if records else {}
    found = header.get("kind")
    if header.get("record") != HEADER or log_of(found) != kind:
        raise LogFormatError(
            f"{path}: first record is not a {noun} header "
            f"(got record={header.get('record')!r} kind={found!r})")
    if header.get("schema") != SCHEMA[kind]:
        raise LogSchemaError(
            f"{path}: {noun} schema version {header.get('schema')!r} is not "
            f"supported (this build reads version {SCHEMA[kind]})")
    return Log(path=path, header=header, records=records[1:], torn=torn,
               end=end)


class LogWriter:
    """Appends records to one log, a line each, flushed as written (and
    ``fsync``-ed unless the log is a trace) — or, inside :meth:`group`,
    when the group ends.  Open one with :func:`create` or
    :func:`reopen`."""

    def __init__(self, path: Path, mode: str, kind):
        self.path = path
        self._fh = open(path, mode, encoding="utf-8")
        self._durable = log_of(kind) != TRACE
        self._grouped = False

    def append(self, record: dict) -> None:
        self._fh.write(dumps(record) + "\n")
        if not self._grouped:
            self._sync()

    def write(self, record: dict) -> None:
        """Append ``record`` flushed but never ``fsync``-ed on its own:
        it is durable once the next durable append or group is."""
        self._fh.write(dumps(record) + "\n")
        if not self._grouped:
            self._fh.flush()

    @contextmanager
    def group(self):
        """Append the block's records with one flush (and one ``fsync``)
        when it exits, raising or not.  A writer killed inside the block
        loses its records, leaving at most a torn tail on disk."""
        self._grouped = True
        try:
            yield
        finally:
            self._grouped = False
            self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self._durable:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create(path: str | Path, kind: str, meta: dict | None = None,
           **header) -> LogWriter:
    """Start a ``kind`` log at ``path``, replacing any file there, with
    its header line (``meta`` plus any ``header`` fields)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer = LogWriter(path, "w", kind)
    writer.append({"record": HEADER, "schema": SCHEMA[log_of(kind)],
                   "kind": kind, "meta": dict(meta or {}), **header})
    return writer


def reopen(log: Log) -> LogWriter:
    """Append to a log :func:`read` returned, from the end of its last
    complete line: a torn tail is cut off first."""
    os.truncate(log.path, log.end)
    return LogWriter(log.path, "a", log.header.get("kind"))
