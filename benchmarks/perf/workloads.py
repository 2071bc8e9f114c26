"""The five workloads, each run to completion inside one child process.

Every workload is ``resnet``/``tiny`` (the paper's primary model) and
calls only the stable public entry points: ``build_workload``,
``Campaign`` / ``InferenceCampaign`` (``prepare``, ``run``),
``InferenceSession`` / ``ServingEngine`` (``predict``, ``batcher.run``,
``batcher.stop``), ``ResultStore`` and ``run_provenance``.

A workload sets up (build, train, warm up — all untimed), then repeats
fixed-size *segments* until the run's time budget is spent, then checks
what it produced.  Segments, not the clock, carry the inputs: segment
``k`` of seed ``s`` is the same fault list or request stream on every
commit, so the first :data:`DIGEST_SEGMENTS` segments — which always run
— give a ``state_digest`` two commits can be diffed on exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.faults import Campaign, InferenceCampaign
from repro.engine import ResultStore
from repro.serving import InferenceSession, ServingEngine, ShedError
from repro.workloads import build_workload

_clock = time.perf_counter

#: Segments every run completes whatever the host's speed; the
#: determinism report (``state_digest``, ``outcome_counts``) and the
#: fixed-size traced run cover exactly these.
DIGEST_SEGMENTS = 2

#: The paper's 8-device protocol at the repo's tiny scale.
CAMPAIGN_KWARGS = dict(num_devices=8, warmup_iterations=8, horizon=16,
                       inject_window=6, test_every=8, detect=True)

#: ``queue_cap`` is out of reach of both phases (16 callers; a fifth of
#: capacity): it is sized so that a 2 s stall of the host, which this
#: sandbox does produce, is late rather than shed.
SERVE_KWARGS = dict(max_batch=8, max_wait_s=0.002, queue_cap=1024,
                    shadow_rate=1.0, recover=True)
CLOSED_LOOP_CLIENTS = 16
OPEN_LOOP_RATE = 400.0  # req/s, ~20 % of measured clean capacity
WINDOW_S = 0.5          # closed-loop throughput is read per window


@dataclass(frozen=True)
class Sizes:
    """Work per segment and warm-up; ``--smoke`` is at most 1/8 of full."""

    inprocess_segment: int
    batched_segment: int
    batched_block: int
    inference_segment: int
    warmup_experiments: int
    oracle_experiments: int
    serve_warmup_s: float
    #: Requests in each digest segment of a serve phase.
    serve_segment_requests: int


FULL = Sizes(inprocess_segment=4, batched_segment=8, batched_block=4,
             inference_segment=250, warmup_experiments=2,
             oracle_experiments=2, serve_warmup_s=1.0,
             serve_segment_requests=1000)
SMOKE = Sizes(inprocess_segment=1, batched_segment=2, batched_block=2,
              inference_segment=30, warmup_experiments=1,
              oracle_experiments=1, serve_warmup_s=0.2,
              serve_segment_requests=100)


@dataclass
class Context:
    """What a child process was asked to do, and where it reports."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    clock: object
    #: ``None`` for the timed run; installed around the traced phases.
    probes: object = None
    setup_only: bool = False
    #: perf_counter stamps the runner and attribution read back.
    marks: dict = field(default_factory=dict)
    result: dict = field(default_factory=lambda: {"failed": 0})

    @property
    def traced(self) -> bool:
        return self.probes is not None

    def mark(self, name: str) -> float:
        self.marks[name] = now = _clock()
        return now

    def fail(self, message: str, count: int = 1) -> None:
        self.result.setdefault("failures", []).append(message)
        self.result["failed"] += count


def segment_seed(seed: int, k: int) -> int:
    """Fault-list seed of segment ``k`` (shared by both training
    campaigns so their digests can be compared key for key)."""
    return seed * 1000 + k


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _run_segments(ctx: Context, run_one, per_stamp: int) -> list[dict]:
    """The measured part of a campaign workload; ``run_one(k)`` runs
    segment ``k``.

    Timed run: whole segments until the budget is spent.  Traced run:
    first one segment with the probes lifted (they are on during set-up,
    so the warm-up snapshot is seen), whose rate against the traced
    segments' is the tracing overhead; then exactly the digest segments,
    so counts repeat between commits.
    """
    if ctx.traced:
        ctx.probes.remove()
        ctx.mark("untraced_start")
        ctx.result["untraced_n"] = run_one(900)["n"]
        ctx.mark("untraced_end")
        ctx.probes.install()
    segments: list[dict] = []
    start = ctx.mark("timed_start")
    while len(segments) < DIGEST_SEGMENTS or not (
            ctx.traced or _clock() - start >= ctx.seconds):
        segments.append(run_one(len(segments)))
        if len(segments) == DIGEST_SEGMENTS:
            # Read at a fixed amount of work, not at the end: a faster
            # host fits more segments into the budget and keeps more.
            ctx.result["peak_rss_mb"] = _peak_rss_mb()
    ctx.mark("timed_end")
    ctx.result["attempted"] = sum(seg["n"] for seg in segments)
    if ctx.traced:
        ctx.probes.remove()
        ctx.result["traced_n"] = ctx.result["attempted"]
    _throughput_and_latency(ctx, segments, per_stamp)
    return segments


def _throughput_and_latency(ctx: Context, segments: list[dict],
                            per_stamp: int) -> None:
    """End-to-end numbers from per-segment stamps, host-normalised.

    ``stamps`` are completion times; ``per_stamp`` completions land
    together (a batched block), and one result's latency is the time
    since the previous block ended.
    """
    clock = ctx.clock
    rates, rates_raw, lat, lat_raw = [], [], [], []
    for seg in segments:
        n = seg["n"]
        rates.append(n / float(clock.normalise(seg["start"], seg["end"])[0]))
        rates_raw.append(n / (seg["end"] - seg["start"]))
        ends = np.asarray(seg["stamps"][per_stamp - 1::per_stamp])
        starts = np.concatenate(([seg["start"]], ends[:-1]))
        lat.extend(clock.normalise(starts, ends))
        lat_raw.extend(ends - starts)
    ctx.result["metrics"] = {
        "throughput_per_s": float(np.median(rates)),
        "latency_p50_ms": float(np.median(lat)) * 1e3,
    }
    ctx.result["raw"] = {
        "throughput_per_s": float(np.median(rates_raw)),
        "latency_p50_ms": float(np.median(lat_raw)) * 1e3,
        "throughput_total_per_s": sum(s["n"] for s in segments) / sum(
            s["end"] - s["start"] for s in segments),
    }
    ctx.result["detail"] = {
        "segments": len(segments),
        "segment_size": segments[0]["n"],
        "segment_throughput_per_s": rates,
        "latency_samples": len(lat),
    }


def _store_payloads(ctx: Context, seg: dict) -> list[dict]:
    """Read a segment's store back; a short or quarantined store fails
    the missing experiments."""
    with ResultStore(seg["store"], resume=True) as store:
        completed = dict(store.completed)
        quarantined = len(store.quarantined)
    missing = seg["n"] - len(completed)
    if missing or quarantined:
        ctx.fail(f"segment {seg['k']}: store holds {len(completed)} of "
                 f"{seg['n']} experiments, {quarantined} quarantined",
                 max(missing, quarantined))
    ctx.result["store_bytes"] = ctx.result.get("store_bytes", 0) \
        + Path(seg["store"]).stat().st_size
    return sorted(completed.values(), key=lambda p: p["index"])


# ----------------------------------------------------------------------
# Training campaigns
# ----------------------------------------------------------------------
def _build_campaign(backend: str, block: int) -> Campaign:
    spec = build_workload("resnet", size="tiny")
    campaign = Campaign(spec, **CAMPAIGN_KWARGS, backend=backend,
                        experiment_batch=block)
    campaign.prepare()
    return campaign


def _campaign_segment(ctx: Context, campaign: Campaign, k: int, n: int) -> dict:
    store = ctx.workdir / f"segment{k}" / "store.jsonl"
    stamps: list[float] = []
    start = _clock()
    result = campaign.run(
        n, seed=segment_seed(ctx.seed, k), parallel=1, store=store,
        trace=True, on_progress=lambda _snapshot: stamps.append(_clock()))
    end = _clock()
    return {"k": k, "n": n, "start": start, "end": end, "stamps": stamps,
            "store": store, "trace": result.engine_report.trace_path}


def _finished_in_trace(path) -> int:
    if path is None:
        return 0
    with open(path, encoding="utf-8") as handle:
        return sum('"type":"experiment_finished"' in line for line in handle)


def run_training_campaign(ctx: Context, backend: str) -> None:
    sizes = ctx.sizes
    block = sizes.batched_block if backend == "batched" else 1
    n = sizes.batched_segment if backend == "batched" \
        else sizes.inprocess_segment
    campaign = _build_campaign(backend, block)
    campaign.run(sizes.warmup_experiments, seed=segment_seed(ctx.seed, 999))
    ctx.mark("setup_end")
    if ctx.setup_only:
        return
    segments = _run_segments(
        ctx, lambda k: _campaign_segment(ctx, campaign, k, n), block)

    digests: dict[str, dict[str, str]] = {}
    outcomes: list[str] = []
    for seg in segments:
        payloads = _store_payloads(ctx, seg)
        finished = _finished_in_trace(seg["trace"])
        if finished != seg["n"]:
            ctx.fail(f"segment {seg['k']}: merged trace holds {finished} "
                     f"experiment_finished events, expected {seg['n']}")
        if seg["k"] < DIGEST_SEGMENTS:
            digests[str(seg["k"])] = {
                str(p["index"]): p["arena_sha256"] for p in payloads}
            outcomes.extend(p["outcome"] for p in payloads)
    ctx.result["digests"] = digests
    ctx.result["outcome_counts"] = dict(Counter(outcomes))
    ctx.result["state_digest"] = _digest(
        sha for k in sorted(digests, key=int)
        for _index, sha in sorted(digests[k].items(), key=lambda kv: int(kv[0])))
    if backend == "batched":
        _check_against_inprocess(ctx, digests["0"])


def _check_against_inprocess(ctx: Context, batched: dict[str, str]) -> None:
    """The correctness oracle: the first faults of segment 0 again, on
    the in-process backend, must leave byte-identical training state."""
    n = ctx.sizes.oracle_experiments
    oracle = _build_campaign("inprocess", 1).run(
        n, seed=segment_seed(ctx.seed, 0))
    for index, result in enumerate(oracle.results):
        if batched.get(str(index)) != result.arena_sha256:
            ctx.fail(f"experiment {index}: batched arena digest differs "
                     f"from in-process")
    ctx.result["oracle_checked"] = n


# ----------------------------------------------------------------------
# Inference campaign
# ----------------------------------------------------------------------
def run_inference_campaign(ctx: Context) -> None:
    spec = build_workload("resnet", size="tiny")
    campaign = InferenceCampaign(spec, train_iterations=spec.iterations,
                                 num_devices=2)
    n = ctx.sizes.inference_segment
    campaign.run(max(n // 8, 4), seed=segment_seed(ctx.seed, 999), batch=32)
    ctx.mark("setup_end")
    if ctx.setup_only:
        return

    def segment(k: int) -> dict:
        store = ctx.workdir / f"segment{k}" / "store.jsonl"
        stamps: list[float] = []
        start = _clock()
        campaign.run(n, seed=segment_seed(ctx.seed, k), batch=32, store=store,
                     on_progress=lambda _snapshot: stamps.append(_clock()))
        return {"k": k, "n": n, "start": start, "end": _clock(),
                "stamps": stamps, "store": store}

    segments = _run_segments(ctx, segment, 1)

    outcomes: list[str] = []
    for seg in segments:
        payloads = _store_payloads(ctx, seg)
        if seg["k"] < DIGEST_SEGMENTS:
            outcomes.extend(p["outcome"] for p in payloads)
    ctx.result["outcome_counts"] = dict(Counter(outcomes))
    ctx.result["state_digest"] = _digest(outcomes)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Traffic:
    """One engine's request log: what was asked, what came back, when."""

    PHASES = ("warmup", "untraced", "a", "b")

    def __init__(self, engine: ServingEngine, seed: int):
        self.engine = engine
        self.seed = seed
        #: (phase, request number, input index, due/send time, completion
        #: time, pred or None)
        self.records: list[tuple] = []
        self.errors = 0
        self.begin("warmup")

    def begin(self, phase: str) -> None:
        """Start a phase on its own index stream: request ``k`` of a phase
        is the same input however many requests the timed phases before
        it fitted in."""
        rng = np.random.default_rng([self.seed, self.PHASES.index(phase)])
        self.phase = phase
        self.indices = rng.integers(0, self.engine.session.num_samples,
                                    size=1 << 18)
        self.issued = 0

    async def request(self, since: float | None = None) -> None:
        phase, number = self.phase, self.issued
        self.issued += 1
        index = int(self.indices[number % len(self.indices)])
        sent = _clock() if since is None else since
        pred = None
        try:
            pred = (await self.engine.predict(index))["pred"]
        except ShedError:
            pass
        except Exception:  # noqa: BLE001 - counted and reported, not fatal
            self.errors += 1
        self.records.append((phase, number, index, sent, _clock(), pred))

    async def closed_loop(self, stop) -> None:
        """``CLOSED_LOOP_CLIENTS`` callers, each waiting for its reply
        before sending again, until ``stop()``."""
        async def client():
            while not stop():
                await self.request()
        await asyncio.gather(*(client() for _ in range(CLOSED_LOOP_CLIENTS)))

    async def open_loop(self, count: int) -> list[float]:
        """``count`` requests on a fixed schedule whatever the replies
        do; latency runs from each request's due time.  Returns how late
        each was sent."""
        late = []
        tasks = []
        start = _clock() + 0.02
        for k in range(count):
            due = start + k / OPEN_LOOP_RATE
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(_clock() - due)
            tasks.append(asyncio.ensure_future(self.request(since=due)))
        await asyncio.gather(*tasks)
        return late


async def _serve(ctx: Context, engine: ServingEngine) -> dict:
    sizes = ctx.sizes
    traffic = _Traffic(engine, ctx.seed)
    runner = asyncio.ensure_future(engine.batcher.run())
    phases: dict = {}
    try:
        deadline = _clock() + sizes.serve_warmup_s
        await traffic.closed_loop(lambda: _clock() >= deadline)
        ctx.mark("setup_end")
        if ctx.setup_only:
            return phases
        segment = sizes.serve_segment_requests
        if ctx.traced:
            ctx.probes.remove()
            traffic.begin("untraced")
            ctx.mark("untraced_start")
            await traffic.closed_loop(lambda: traffic.issued >= segment)
            ctx.mark("untraced_end")
            ctx.result["untraced_n"] = traffic.issued
            ctx.probes.install()
            ctx.probes.wrap_execute(engine.batcher)

        # Phase A: closed loop.  Timed run: half the budget; traced run:
        # the digest segments' worth of requests.
        phases["before"] = engine.summary()
        phases["batches_before"] = len(engine.batcher.batch_sizes)
        traffic.begin("a")
        start = ctx.mark("timed_start")
        if ctx.traced:
            total = DIGEST_SEGMENTS * segment
            await traffic.closed_loop(lambda: traffic.issued >= total)
        else:
            await traffic.closed_loop(
                lambda: _clock() - start >= ctx.seconds / 2)
        ctx.mark("phase_a_end")

        # Phase B: open loop at a fixed rate for the other half.
        ctx.result["traced_n"] = traffic.issued
        traffic.begin("b")
        count = DIGEST_SEGMENTS * segment if ctx.traced else max(
            int(OPEN_LOOP_RATE * ctx.seconds / 2), DIGEST_SEGMENTS * segment // 4)
        phases["late"] = await traffic.open_loop(count)
        ctx.mark("timed_end")
        if ctx.traced:
            ctx.probes.remove()
        phases["after"] = engine.summary()
    finally:
        engine.batcher.stop()
        await runner
    phases["traffic"] = traffic
    return phases


def run_serving(ctx: Context, fault_rate: float) -> None:
    spec = build_workload("resnet", size="tiny")
    session = InferenceSession(spec, train_iterations=spec.iterations)
    engine = ServingEngine(session, fault_rate=fault_rate, seed=ctx.seed,
                           **SERVE_KWARGS)
    golden = np.argmax(session.forward(session.inputs), axis=-1)
    phases = asyncio.run(_serve(ctx, engine))
    if ctx.setup_only:
        return
    ctx.result["peak_rss_mb"] = _peak_rss_mb()
    traffic: _Traffic = phases["traffic"]
    clock = ctx.clock
    # Records: (phase, number, index, sent or due, done, pred).
    records = sorted(traffic.records)
    a = [r for r in records if r[0] == "a"]
    b = [r for r in records if r[0] == "b"]

    # Phase A: completions per WINDOW_S window, whole windows only.
    a_start, a_end = ctx.marks["timed_start"], ctx.marks["phase_a_end"]
    done = np.sort([r[4] for r in a if r[5] is not None])
    edges = np.arange(a_start, a_end, WINDOW_S)
    if len(edges) < 2:
        edges = np.array([a_start, a_end])
    counts = np.diff(np.searchsorted(done, edges))
    rates = counts / clock.normalise(edges[:-1], edges[1:])
    rates_raw = counts / np.diff(edges)
    # Phase B: latency from each request's due time.
    served = [r for r in b if r[5] is not None]
    due = np.array([r[3] for r in served])
    finished = np.array([r[4] for r in served])
    # The batcher's max_wait_s timer is wall-clock by design; only the
    # rest of a latency shrinks or stretches with the host's speed.
    latency_raw = finished - due
    timer = np.minimum(latency_raw, SERVE_KWARGS["max_wait_s"])
    latency = (timer + (latency_raw - timer) * clock.speed(due, finished)) * 1e3
    latency_raw = latency_raw * 1e3
    late_ms = np.asarray(phases["late"]) * 1e3
    ctx.result["metrics"] = {
        "throughput_per_s": float(np.median(rates)),
        "latency_p50_ms": float(np.median(latency)),
    }
    ctx.result["raw"] = {
        "throughput_per_s": float(np.median(rates_raw)),
        "latency_p50_ms": float(np.median(latency_raw)),
    }
    ctx.result["detail"] = {
        "closed_loop_clients": CLOSED_LOOP_CLIENTS,
        "window_s": WINDOW_S,
        "windows": len(rates),
        "window_throughput_per_s": rates.tolist(),
        "window_min_max_per_s": [float(rates.min()), float(rates.max())],
        "open_loop_rate_per_s": OPEN_LOOP_RATE,
        "open_loop_requests": len(b),
        "latency_samples": len(served),
        "open_loop": {
            "latency_p90_ms": float(np.percentile(latency, 90)),
            "latency_p99_ms": float(np.percentile(latency, 99)),
            "late_p99_ms": float(np.percentile(late_ms, 99)),
            "late_max_ms": float(late_ms.max()),
        },
    }

    # Checks: every served label golden, nothing lost, nothing shed in
    # phase B, and the zero-fault control.
    timed = a + b
    ctx.result["attempted"] = len(timed)
    wrong = sum(r[5] is not None and r[5] != golden[r[2]] for r in timed)
    unserved = sum(r[5] is None for r in timed)
    if wrong:
        ctx.fail(f"{wrong} served labels differ from golden", wrong)
    if unserved:
        ctx.fail(f"{unserved} requests shed or raised", unserved)
    after = phases["after"]
    if after["responses"] + after["shed"] + traffic.errors != after["requests"]:
        ctx.fail("responses + shed != submitted: "
                 f"{after['responses']} + {after['shed']} != {after['requests']}")
    delta = {key: after[key] - phases["before"][key] for key in (
        "batches", "shed", "faults_fired", "shadow_execs", "recovered_batches")}
    sdc = after["outcomes"]["sdc"] - phases["before"]["outcomes"]["sdc"]
    if fault_rate == 0.0 and (delta["faults_fired"] or sdc):
        ctx.fail(f"zero-fault control: {delta['faults_fired']} faults fired, "
                 f"{sdc} SDC")
    if fault_rate > 0.0 and not (delta["faults_fired"] and delta["shadow_execs"]):
        ctx.fail("fault plane idle: no fault fired or no shadow execution")
    sizes_timed = engine.batcher.batch_sizes[phases["batches_before"]:]
    ctx.result["serving"] = dict(
        delta, sdc_detected=sdc,
        batch_size_mean=float(np.mean(sizes_timed)) if sizes_timed else 0.0)

    # Determinism report over the requests every run serves.
    segment = DIGEST_SEGMENTS * ctx.sizes.serve_segment_requests
    fixed = a[:segment] + b[:segment // 4]
    ctx.result["outcome_counts"] = dict(Counter(
        "unserved" if r[5] is None
        else "golden" if r[5] == golden[r[2]] else "mismatch"
        for r in fixed))
    ctx.result["state_digest"] = _digest(r[5] for r in fixed)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RUNNERS = {
    "campaign_inprocess": lambda ctx: run_training_campaign(ctx, "inprocess"),
    "campaign_batched": lambda ctx: run_training_campaign(ctx, "batched"),
    "campaign_inference": run_inference_campaign,
    "serve_clean": lambda ctx: run_serving(ctx, 0.0),
    "serve_faulty": lambda ctx: run_serving(ctx, 0.2),
}


def dump_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
