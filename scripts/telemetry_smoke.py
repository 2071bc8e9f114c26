"""CI smoke test for the live telemetry service.

Launches a real parallel campaign as a subprocess and, next to it,
``repro monitor <store> --serve 0``: the one way a running campaign is
watched.  Every endpoint is scraped while the campaign is still running
and the Prometheus exposition is validated; the monitor must exit 0 once
the store is complete.

Run from the repository root::

    PYTHONPATH=src python scripts/telemetry_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.observe.export import validate_exposition  # noqa: E402

POLL_TIMEOUT_S = 120.0

#: How long a monitor whose endpoint refused a scrape has to exit 0.
#: The endpoint closes a few tens of ms before the process does, so a
#: scrape can land in between; a refusal from a monitor that then keeps
#: running is a dead server.
EXIT_GRACE_S = 5.0


def _fetch(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:  # 503 from /healthz is an answer
        return exc.code, exc.read().decode("utf-8")


def _repro(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def _wait_for_header(store: Path, campaign) -> None:
    """Wait until the campaign has written its store's header line."""
    deadline = time.monotonic() + POLL_TIMEOUT_S
    while not (store.exists() and store.read_bytes().endswith(b"\n")):
        if campaign.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError("campaign never wrote its store header")
        time.sleep(0.05)


def _drain(process, name: str) -> list[str]:
    """Echo the process's output from a thread, so a full pipe never
    blocks it; returns the list its lines are collected in."""
    lines: list[str] = []

    def pump():
        for line in process.stdout:
            lines.append(line)
            print(f"[{name}] {line.rstrip()}", flush=True)

    threading.Thread(target=pump, daemon=True).start()
    return lines


def _wait_for_url(lines: list[str], monitor) -> str:
    """Wait until the monitor announces its endpoint."""
    deadline = time.monotonic() + POLL_TIMEOUT_S
    prefix = "telemetry: serving on "
    while time.monotonic() < deadline and monitor.poll() is None:
        for line in list(lines):
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        time.sleep(0.05)
    raise RuntimeError("monitor never announced its telemetry endpoint")


def _scrape(url: str) -> None:
    """One round over the four endpoints; asserts each answers validly."""
    status, metrics = _fetch(f"{url}/metrics")
    assert status == 200, f"/metrics returned {status}"
    samples = validate_exposition(metrics)
    names = {name for name, _, _ in samples}
    assert "repro_up" in names, f"no repro_up in scrape: {names}"

    status, health = _fetch(f"{url}/healthz")
    assert status in (200, 503), f"/healthz returned {status}"
    json.loads(health)

    status, progress = _fetch(f"{url}/progress")
    assert status == 200, f"/progress returned {status}"
    assert json.loads(progress)["schema"] == 1

    status, alerts = _fetch(f"{url}/alerts")
    assert status == 200, f"/alerts returned {status}"
    assert set(json.loads(alerts)) == {"slo", "firing"}, alerts


def _smoke(store: Path) -> None:
    campaign = _repro("campaign", "resnet", "--experiments", "8",
                      "--parallel", "2", "--store", str(store))
    _drain(campaign, "campaign")
    monitor = None
    try:
        _wait_for_header(store, campaign)
        monitor = _repro("monitor", str(store), "--serve", "0",
                         "--interval", "0.2")
        url = _wait_for_url(_drain(monitor, "monitor"), monitor)
        print(f"smoke: endpoint {url}")

        scrapes = 0
        deadline = time.monotonic() + POLL_TIMEOUT_S
        while campaign.poll() is None and time.monotonic() < deadline:
            try:
                _scrape(url)
            except (urllib.error.URLError, ConnectionError) as exc:
                try:
                    monitor.wait(timeout=EXIT_GRACE_S)
                except subprocess.TimeoutExpired:
                    raise AssertionError(
                        f"endpoint refused a scrape and the monitor was "
                        f"still running {EXIT_GRACE_S:g} s later: {exc}"
                    ) from exc
                break  # the store is complete; exit codes are checked below
            scrapes += 1
            time.sleep(0.3)
        for name, process in (("campaign", campaign), ("monitor", monitor)):
            returncode = process.wait(timeout=POLL_TIMEOUT_S)
            assert returncode == 0, f"{name} exited {returncode}"
        assert scrapes >= 3, f"only {scrapes} mid-run scrapes landed"
        print(f"smoke: {scrapes} mid-run scrapes, all endpoints valid, "
              f"monitor exited with the campaign")
    finally:
        for process in (campaign, monitor):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="telemetry-smoke-") as tmp:
        _smoke(Path(tmp) / "campaign.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
