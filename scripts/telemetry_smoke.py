"""CI smoke test for the live telemetry service.

Launches a real parallel campaign with ``--serve 0`` as a subprocess,
scrapes every endpoint while the campaign is still running and validates
the Prometheus exposition.

Run from the repository root::

    PYTHONPATH=src python scripts/telemetry_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.observe.export import validate_exposition  # noqa: E402

POLL_TIMEOUT_S = 120.0

#: How long a campaign whose endpoint refused a scrape has to exit 0.
#: The endpoint closes a few tens of ms before the process does, so a
#: scrape can land in between; a refusal from a campaign that then keeps
#: running is a dead server.
EXIT_GRACE_S = 5.0


def _fetch(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:  # 503 from /healthz is an answer
        return exc.code, exc.read().decode("utf-8")


def _wait_for_url(process) -> str:
    """Read the campaign's stdout until it announces the endpoint."""
    deadline = time.monotonic() + POLL_TIMEOUT_S
    for line in process.stdout:
        print(f"[campaign] {line.rstrip()}")
        if line.startswith("telemetry: serving on "):
            return line.split("telemetry: serving on ", 1)[1].strip()
        if time.monotonic() > deadline:
            break
    raise RuntimeError("campaign never announced its telemetry endpoint")


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


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="telemetry-smoke-"))
    store = tmp / "campaign.jsonl"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "resnet",
         "--experiments", "8", "--parallel", "2",
         "--store", str(store), "--serve", "0", "--serve-interval", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        url = _wait_for_url(process)
        print(f"smoke: endpoint {url}")

        scrapes = 0
        deadline = time.monotonic() + POLL_TIMEOUT_S
        while process.poll() is None and time.monotonic() < deadline:
            try:
                _scrape(url)
            except (urllib.error.URLError, ConnectionError) as exc:
                try:
                    process.wait(timeout=EXIT_GRACE_S)
                except subprocess.TimeoutExpired:
                    raise AssertionError(
                        f"endpoint refused a scrape and the campaign was "
                        f"still running {EXIT_GRACE_S:g} s later: {exc}"
                    ) from exc
                break  # end of run; the exit code is checked below
            scrapes += 1
            time.sleep(0.3)
        returncode = process.wait(timeout=POLL_TIMEOUT_S)
        for line in process.stdout:
            print(f"[campaign] {line.rstrip()}")
        assert returncode == 0, f"campaign exited {returncode}"
        assert scrapes >= 3, f"only {scrapes} mid-run scrapes landed"
        series = store.with_name(store.stem + ".series.jsonl")
        assert series.exists(), f"no telemetry series at {series}"
        print(f"smoke: {scrapes} mid-run scrapes, all endpoints valid, "
              f"series persisted")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
