"""A campaign killed anywhere in its workers or scheduler resumes to the
result it would have had (DESIGN.md decisions 10 and 19).

A real ``repro campaign`` runs in a subprocess: one of its workers is
SIGKILLed in the middle of a lease, then the scheduler itself after a
seeded number of store records, and the campaign is run again with
``--resume``.  Its report and every experiment's canonical story in the
merged trace must equal an uninterrupted run's.  The kill points are
found through ``/proc`` (the engine forks, so it is POSIX-only anyway).
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observe import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    analysis,
    campaign_trace_path,
    read_trace,
    shard_path,
)
from repro.replay import normalize_events

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                       reason="finds worker processes through /proc"),
]

SRC = Path(__file__).resolve().parent.parent / "src"
CAMPAIGN = ["campaign", "resnet", "--experiments", "8", "--parallel", "2",
            "--devices", "2", "--trace"]
#: Seeds the number of store records after which the scheduler dies.
KILL_SEED = 7


def _repro(*args: str, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "repro", *args], env=env,
                            stdout=stdout, stderr=subprocess.STDOUT,
                            text=True)


def _finish(*args: str) -> str:
    process = _repro(*args)
    out, _ = process.communicate(timeout=600)
    assert process.returncode == 0, out
    return out


def _until(condition, what: str, process=None, limit: float = 120.0) -> None:
    deadline = time.monotonic() + limit
    while not condition():
        assert process is None or process.poll() is None, \
            f"the campaign exited before {what}"
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _records(path: Path) -> list[dict]:
    """The complete JSON lines of a log another process is writing."""
    records = []
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # the line being written
    return records


def _open_units(shard: Path) -> int:
    types = [record.get("type") for record in _records(shard)]
    return types.count(EXPERIMENT_STARTED) - types.count(EXPERIMENT_FINISHED)


def _parent(pid: int) -> int | None:
    """The parent pid of a live process, None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return None
    state, ppid = stat.split()[:2]
    return None if state in "ZX" else int(ppid)


def _children(pid: int) -> list[int]:
    return [int(entry.name) for entry in Path("/proc").iterdir()
            if entry.name.isdigit() and _parent(int(entry.name)) == pid]


def _holding(pids: list[int], path: Path) -> int:
    """The process among ``pids`` with ``path`` open."""
    for pid in pids:
        try:
            if any(os.readlink(fd) == os.path.realpath(path)
                   for fd in Path(f"/proc/{pid}/fd").iterdir()):
                return pid
        except OSError:
            continue
    raise AssertionError(f"no worker has {path} open")


def _report(store: Path) -> dict:
    report = json.loads(_finish("report", str(store), "--json"))
    del report["store"]
    return report


def _stories(store: Path) -> dict[str, list[str]]:
    """key -> canonical training events, from the merged campaign trace."""
    stories = analysis.experiments(read_trace(campaign_trace_path(store)))
    return {key: normalize_events(story) for key, story in stories.items()}


def test_killed_worker_and_scheduler_resume_to_the_uninterrupted_run(
        tmp_path):
    clean, killed = (tmp_path / run / "s.jsonl" for run in ("clean", "kill"))
    clean.parent.mkdir()
    killed.parent.mkdir()
    _finish(*CAMPAIGN, "--store", str(clean))

    records_before_kill = random.Random(KILL_SEED).randint(1, 6)
    scheduler = _repro(*CAMPAIGN, "--store", str(killed),
                       stdout=subprocess.DEVNULL)
    try:
        shard = shard_path(killed.parent, 0)
        _until(lambda: _open_units(shard) > 0, "worker 0's first lease",
               scheduler)
        os.kill(_holding(_children(scheduler.pid), shard), signal.SIGKILL)
        _until(lambda: sum(r.get("record") == "experiment"
                           for r in _records(killed)) >= records_before_kill,
               f"{records_before_kill} store records", scheduler)
        workers = _children(scheduler.pid)
        scheduler.kill()
        assert scheduler.wait() == -signal.SIGKILL
    finally:
        if scheduler.poll() is None:
            scheduler.kill()
            scheduler.wait()
    # Orphaned workers read end-of-file on their pipes and exit, so none
    # is still writing a shard when the resumed run merges them.
    _until(lambda: all(_parent(pid) is None for pid in workers),
           "the orphaned workers to exit", limit=60.0)

    resumed = re.search(r"engine: (\d+) executed, (\d+) resumed",
                        _finish(*CAMPAIGN, "--store", str(killed), "--resume"))
    executed, skipped = map(int, resumed.groups())
    assert executed > 0 and skipped >= records_before_kill
    assert executed + skipped == 8
    assert _report(killed) == _report(clean)
    assert _report(clean)["experiments"] == 8
    assert _stories(killed) == _stories(clean)
