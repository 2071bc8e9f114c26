"""The record-log format (repro.jsonl), checked once on each log the
system writes: a result store and a trace (shard stream).  Each case
writes the log with its real writer and reads it back with its public
reader."""

import json

import pytest

from repro import jsonl
from repro.cli import main
from repro.engine import ResultStore, merge_stores, read_records
from repro.observe import ITERATION_STATS, Tracer, read_trace

N = 5


def _write_store(path):
    with ResultStore(path, kind="campaign") as store:
        for i in range(N):
            store.append(f"k{i}", {"i": i, "outcome": "masked"})


def _read_store(path):
    return [r["payload"]["i"] for r in read_records(path)[1:]]


def _write_trace(path):
    with Tracer(stream=path) as tracer:
        for i in range(N):
            tracer.emit(ITERATION_STATS, iteration=i, loss=1.0 / (i + 1))


def _read_trace(path):
    return [e.iteration for e in read_trace(path).events]


#: log -> (kind read as, writer, reader returning the record indices).
LOGS = {
    "store": (jsonl.STORE, _write_store, _read_store),
    "trace": (jsonl.TRACE, _write_trace, _read_trace),
}


@pytest.fixture(params=sorted(LOGS))
def log(request, tmp_path):
    """``(kind, path of a freshly written N-record log, reader)``."""
    kind, write, read = LOGS[request.param]
    path = tmp_path / f"{request.param}.jsonl"
    write(path)
    return kind, path, read


def _lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _rewrite(path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_round_trip(log):
    kind, path, read = log
    assert read(path) == list(range(N))
    header = json.loads(_lines(path)[0])
    assert header["record"] == "header"
    assert jsonl.log_of(header["kind"]) == kind
    assert header["schema"] == jsonl.SCHEMA[kind]


def test_empty_file(log):
    _, path, read = log
    path.write_text("")
    with pytest.raises(jsonl.LogFormatError, match="empty"):
        read(path)


def test_missing_header(log):
    _, path, read = log
    _rewrite(path, _lines(path)[1:])
    with pytest.raises(jsonl.LogFormatError, match="not a .* header"):
        read(path)


@pytest.mark.parametrize("name,other", [
    (name, other) for name in sorted(LOGS) for other in sorted(LOGS)
    if name != other])
def test_wrong_kind(name, other, tmp_path):
    """A reader refuses every other log (a store is any runner kind but
    the trace kind)."""
    path = tmp_path / f"{other}.jsonl"
    LOGS[other][1](path)
    with pytest.raises(jsonl.LogFormatError, match="not a .* header"):
        LOGS[name][2](path)


@pytest.mark.parametrize("other", ["trace"])
def test_store_refuses_other_logs(other, tmp_path):
    path = tmp_path / f"{other}.jsonl"
    LOGS[other][1](path)
    before = path.read_bytes()
    with pytest.raises(jsonl.LogFormatError):
        ResultStore(path, resume=True)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="not a result-store kind"):
        ResultStore(tmp_path / "new.jsonl", kind=LOGS[other][0])


def test_unknown_schema(log):
    kind, path, read = log
    lines = _lines(path)
    header = json.loads(lines[0])
    header["schema"] = 99
    lines[0] = json.dumps(header)
    _rewrite(path, lines)
    with pytest.raises(jsonl.LogSchemaError, match="99"):
        read(path)
    assert issubclass(jsonl.LogSchemaError, jsonl.LogFormatError)
    if kind == jsonl.STORE:
        with pytest.raises(jsonl.LogSchemaError):
            ResultStore(path, resume=True)


def test_corrupt_interior_line(log):
    _, path, read = log
    lines = _lines(path)
    lines[2] = lines[2][:10]
    _rewrite(path, lines)
    with pytest.raises(jsonl.LogFormatError, match=r":3: corrupt \w+ record"):
        read(path)


@pytest.mark.parametrize("newline", [False, True])
def test_torn_tail(log, newline):
    """A final line cut mid-write — with or without a newline after the
    cut — loses that record only, and the reader says so."""
    kind, path, read = log
    data = path.read_bytes()
    path.write_bytes(data[:-20] + (b"\n" if newline else b""))
    assert read(path) == list(range(N - 1))
    torn = jsonl.read(path, kind)
    assert torn.torn
    assert torn.end == data.rfind(b"\n", 0, len(data) - 1) + 1
    if kind == jsonl.TRACE:
        assert read_trace(path).truncated
    path.write_bytes(data)
    assert not jsonl.read(path, kind).torn


@pytest.mark.parametrize("kind,durable", [("campaign", True),
                                          (jsonl.TRACE, False)])
def test_group_syncs_once_when_it_ends(kind, durable, tmp_path, fsyncs):
    """A group's records are written as appended and synced together at
    its end, also when the block raises; a trace is flushed, never
    fsynced, grouped or not."""
    path = tmp_path / "log.jsonl"
    writer = jsonl.create(path, kind)
    header = len(fsyncs)
    assert header == int(durable)
    with writer.group():
        writer.append({"i": 0})
        writer.append({"i": 1})
        assert len(fsyncs) == header
    assert len(fsyncs) == 2 * header
    assert [r["i"] for r in jsonl.read(path, jsonl.log_of(kind)).records] \
        == [0, 1]
    with pytest.raises(RuntimeError), writer.group():
        writer.append({"i": 2})
        raise RuntimeError("lease failed after its first record")
    assert len(fsyncs) == 3 * header
    writer.append({"i": 3})  # ungrouped again: synced on its own
    assert len(fsyncs) == 4 * header
    writer.close()
    assert [r["i"] for r in jsonl.read(path, jsonl.log_of(kind)).records] \
        == [0, 1, 2, 3]


def test_store_merge_syncs_once(tmp_path, fsyncs):
    for name in ("a", "b"):
        _write_store(tmp_path / f"{name}.jsonl")
    del fsyncs[:]
    merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                 tmp_path / "out.jsonl").close()
    assert len(fsyncs) == 2  # the header, then every record at once
    assert _read_store(tmp_path / "out.jsonl") == list(range(N))


def test_append_after_torn_tail(log):
    """The writer appends from the end of the last complete line, so a
    reopened log never glues a record onto the torn one."""
    kind, path, read = log
    path.write_bytes(path.read_bytes()[:-20])
    torn = jsonl.read(path, kind)
    with jsonl.reopen(torn) as writer:
        writer.append(torn.records[0])
    assert read(path) == list(range(N - 1)) + [0]
    assert not jsonl.read(path, kind).torn


def test_cut_at_every_byte(log, tmp_path):
    """The log cut at every byte offset, as a killed writer may leave it:
    a cut inside the header is a format error; any other cut reads
    exactly the records whose newline lies before it (a final record
    without one is torn), and the log resumed there appends a record
    that reads back after them."""
    kind, path, read = log
    data = path.read_bytes()
    last = jsonl.read(path, kind).records[-1]
    newlines = [i for i, byte in enumerate(data) if byte == ord("\n")]
    cut_path = tmp_path / "cut.jsonl"
    for cut in range(len(data) + 1):
        cut_path.write_bytes(data[:cut])
        if cut <= newlines[0]:
            with pytest.raises(jsonl.LogFormatError):
                read(cut_path)
            continue
        kept = list(range(sum(n < cut for n in newlines[1:])))
        assert read(cut_path) == kept, cut
        if kind == jsonl.STORE:
            with ResultStore(cut_path, resume=True) as store:
                store.append(f"k{N}", {"i": N, "outcome": "masked"})
        else:
            with jsonl.reopen(jsonl.read(cut_path, kind)) as writer:
                writer.append(dict(last, iteration=N))
        assert read(cut_path) == kept + [N], cut


def _legacy_series(path):
    """A telemetry series as the deleted HTTP inference front-end wrote
    it: a schema-1 header of kind ``telemetry_series``, then samples."""
    _rewrite(path, [jsonl.dumps(line) for line in (
        {"record": "header", "schema": 1, "kind": "telemetry_series",
         "meta": {}},
        {"t": 1.0, "gauges": {"serving.queue_depth": 0.0},
         "counters": {"serving.requests": 4.0}, "outcomes": {}})])


def test_legacy_series_is_refused_by_name(tmp_path, capsys):
    """Read as a store, a series would be an empty campaign that reports
    and monitors with exit 0; it is refused like any other foreign log."""
    path = tmp_path / "old.series.jsonl"
    _legacy_series(path)
    with pytest.raises(jsonl.LogFormatError, match="'telemetry_series'"):
        jsonl.read(path, jsonl.STORE)
    with pytest.raises(jsonl.LogFormatError, match="'telemetry_series'"):
        read_records(path)
    for argv in (["report", str(path)], ["monitor", str(path), "--once"]):
        assert main(argv) == 2
        assert "telemetry_series" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["campaign", "inference", "toy"])
def test_every_store_kind_still_reads(kind, tmp_path):
    path = tmp_path / f"{kind}.jsonl"
    with ResultStore(path, kind=kind) as store:
        store.append("k0", {"i": 0, "outcome": "masked"})
    assert jsonl.read(path, jsonl.STORE).header["kind"] == kind
    assert _read_store(path) == [0]
