"""CI smoke test for fault-injected inference serving.

Launches ``repro serve-infer`` on an ephemeral port with a nonzero
fault rate as a subprocess, drives a short ``repro loadgen`` burst
against it, validates the Prometheus exposition (SDC and shed counters
must be present, and with full shadowing + this fault rate the SDC
counter must be nonzero), checks batch invariance over HTTP (a request's
``output`` is the same whether it was served alone or beside others,
faults and recovery included), and then re-serves with an impossible
SLO rule to assert ``/healthz`` degrades to 503 under an induced breach.

Run from the repository root::

    PYTHONPATH=src python scripts/serving_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.observe.export import validate_exposition  # noqa: E402
from repro.observe.timeseries import read_series  # noqa: E402

POLL_TIMEOUT_S = 120.0

#: Inputs posted once alone and then, many times over, concurrently.
INVARIANCE_INDICES = list(range(12))


def _fetch(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:  # 503 from /healthz is an answer
        return exc.code, exc.read().decode("utf-8")


def _wait_for_url(process) -> str:
    """Read the server's stdout until it announces its endpoint."""
    deadline = time.monotonic() + POLL_TIMEOUT_S
    for line in process.stdout:
        print(f"[serve] {line.rstrip()}")
        if line.startswith("serving: "):
            return line.split()[3]
        if time.monotonic() > deadline:
            break
    raise RuntimeError("serve-infer never announced its endpoint")


def _predict(url: str, index: int) -> dict:
    request = urllib.request.Request(
        f"{url}/predict", data=json.dumps({"index": index}).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _check_batch_invariance(url: str) -> int:
    """Every concurrent response's ``output`` equals the one its index
    got alone; returns how many of them shared a batch."""
    alone = {}
    for index in INVARIANCE_INDICES:
        response = _predict(url, index)
        assert response["batch_size"] == 1, response["batch_size"]
        alone[index] = response["output"]
    with ThreadPoolExecutor(max_workers=16) as pool:
        shared = list(pool.map(lambda index: _predict(url, index),
                               INVARIANCE_INDICES * 8))
    for response in shared:
        assert response["output"] == alone[response["index"]], \
            f"index {response['index']} served in a batch of " \
            f"{response['batch_size']} differs from its output alone"
    mixed = sum(response["batch_size"] > 1 for response in shared)
    assert mixed, "no concurrent request shared a batch"
    return mixed


def _serve(tmp: Path, *extra: str, duration: float):
    store = tmp / f"serving-{len(extra)}.json"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-infer", "resnet",
         "--train-iterations", "4", "--port", "0",
         "--fault-rate", "0.3", "--shadow-rate", "1.0",
         "--max-batch", "8", "--max-wait-ms", "2",
         "--interval", "0.1", "--duration", str(duration),
         "--store", str(store), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return process, store


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serving-smoke-"))

    # ------------------------------------------------------------------
    # Pass 1: loadgen burst + Prometheus validation on a faulty server.
    # ------------------------------------------------------------------
    process, store = _serve(tmp, duration=10.0)
    try:
        url = _wait_for_url(process)
        print(f"smoke: serving endpoint {url}")

        loadgen = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", url,
             "--rps", "100", "--duration", "3", "--json"],
            capture_output=True, text=True, timeout=POLL_TIMEOUT_S)
        assert loadgen.returncode == 0, \
            f"loadgen exited {loadgen.returncode}: {loadgen.stdout}" \
            f"{loadgen.stderr}"
        report = json.loads(loadgen.stdout)
        assert report["completed"] > 0, "loadgen completed no requests"
        assert report["errors"] == 0, f"loadgen errors: {report}"
        assert report["latency_ms"]["p99"] > 0

        status, metrics = _fetch(f"{url}/metrics")
        assert status == 200, f"/metrics returned {status}"
        parsed = validate_exposition(metrics)
        values = {name: value for name, labels, value in parsed
                  if not labels}
        for required in ("repro_serving_requests_total",
                         "repro_serving_shed_total",
                         "repro_serving_sdc_total",
                         "repro_serving_nonfinite_total",
                         "repro_serving_masked_total",
                         "repro_serving_queue_depth",
                         "repro_serving_sdc_per_million"):
            assert required in values, f"{required} missing from /metrics"
        classified = (values["repro_serving_sdc_total"]
                      + values["repro_serving_nonfinite_total"]
                      + values["repro_serving_masked_total"])
        assert classified > 0, \
            "fault rate 0.3 with full shadowing classified no requests"

        status, health = _fetch(f"{url}/healthz")
        assert status in (200, 503), f"/healthz returned {status}"
        json.loads(health)

        mixed = _check_batch_invariance(url)
        print(f"smoke: batch invariance held; {mixed} of "
              f"{8 * len(INVARIANCE_INDICES)} concurrent requests shared "
              f"a batch")

        # Let --duration elapse so the summary store + series land; at
        # this fault rate the default sdc-per-million SLO is expected
        # to breach, which is a legitimate exit 1.
        returncode = process.wait(timeout=POLL_TIMEOUT_S)
        assert returncode in (0, 1), f"serve-infer exited {returncode}"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    for line in process.stdout:
        print(f"[serve] {line.rstrip()}")
    assert store.exists(), f"no summary store at {store}"
    summary = json.loads(store.read_text())
    assert summary["responses"] > 0
    candidates = list(tmp.glob("*.series.jsonl"))
    assert candidates, f"no telemetry series next to {store}"
    series = candidates[0]
    keys = set()
    for sample in read_series(series)[1]:
        keys.update(sample.gauges)
        keys.update(sample.histograms)
    assert "serving.shed_rate" in keys, "no shed-rate series persisted"
    assert "serving.latency_seconds" in keys, "no latency series persisted"
    print(f"smoke: loadgen {report['completed']} ok / "
          f"{report['shed']} shed; {int(classified)} requests classified; "
          f"series at {series.name}")

    # ------------------------------------------------------------------
    # Pass 2: induced SLO breach must degrade /healthz to 503 and turn
    # into a nonzero exit.
    # ------------------------------------------------------------------
    rules = tmp / "impossible.slo.json"
    rules.write_text(json.dumps([
        {"name": "no-requests", "metric": "counter.serving.requests",
         "max": 0, "severity": "critical"}]))
    process, _ = _serve(tmp, "--slo", str(rules), duration=8.0)
    try:
        url = _wait_for_url(process)
        single = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", url,
             "--rps", "20", "--duration", "1"],
            capture_output=True, text=True, timeout=POLL_TIMEOUT_S)
        assert single.returncode == 0, single.stdout + single.stderr
        time.sleep(0.5)  # two sampler intervals: let the breach register
        status, health = _fetch(f"{url}/healthz")
        assert status == 503, \
            f"/healthz should degrade under the induced breach, got {status}"
        payload = json.loads(health)
        assert payload["status"] == "degraded"
        assert "slo:no-requests" in payload["reasons"], payload
        returncode = process.wait(timeout=POLL_TIMEOUT_S)
        assert returncode == 1, \
            f"serve-infer should exit 1 on a critical breach, " \
            f"got {returncode}"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    for line in process.stdout:
        print(f"[serve] {line.rstrip()}")
    print("smoke: induced SLO breach degraded /healthz and gated the exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
