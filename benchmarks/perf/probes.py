"""Outside-in tracing: timing wrappers installed from the benchmark.

Nothing here lives in ``src/``.  :class:`Probes` resolves each target by
its dotted public name when a traced run starts, replaces the callable
with a wrapper that records one span per call, and puts the original
back afterwards.  A target a later simplification removed is not an
error: it lands in ``probes.missing`` and its metrics read ``None``.

A span is ``[name, start, end, parent, key]``; ``parent`` indexes the
enclosing span on the same thread (-1 for a root) and ``key`` ties the
span to a work unit (its ordinal), a batch (``b<n>``) or a request
(``r<n>``).  Spans stay in per-thread lists until :meth:`Probes.spans`
joins them.  A layer's self time is its span's duration minus the
duration of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _tally_restore(args, counters):
    counters["state.restore_bytes"] += int(args[0].nbytes())


def _tally_lanes(args, counters):
    counters["backend.batched.lanes"] += sum(
        entry[0].num_devices for entry in args[1])


def _tally_emit(args, counters):
    if args[0].enabled:
        counters["observe.trace_events"] += 1


def _nn_span_name(cls) -> str:
    """Group a ``Module`` subclass into the layer families the metrics
    name; containers and pooling share ``nn.other``."""
    if cls.__module__ == "repro.nn.activations":
        return "nn.activation"
    return {"Conv2D": "nn.conv", "BatchNorm": "nn.batchnorm",
            "Dense": "nn.dense"}.get(cls.__name__, "nn.other")


#: (dotted target, attributes, span name, options).  ``subclasses`` wraps
#: every subclass that defines the attribute itself (an override would
#: otherwise bypass a wrapper on the base); a callable span name maps
#: each class to its own name and ``suffix`` appends the attribute's;
#: ``tally`` counts at the same boundary;
#: ``request`` makes an async per-request root span; ``ends_unit``
#: advances the work-unit key after the call.
PROBE_TABLE = (
    ("repro.nn.module.Module", ("forward", "backward"), _nn_span_name,
     {"subclasses": True, "suffix": True}),
    ("repro.nn.losses.Loss", ("forward", "backward"), "nn.loss",
     {"subclasses": True}),
    ("repro.optim.base.Optimizer", ("step",), "optim.step",
     {"subclasses": True}),
    ("repro.backend.inprocess.InProcessBackend", ("step",),
     "backend.inprocess.step", {}),
    ("repro.backend.inprocess.InProcessBackend", ("broadcast",),
     "backend.broadcast", {}),
    ("repro.backend.batched.BatchedBackend", ("broadcast",),
     "backend.broadcast", {}),
    ("repro.backend.batched.run_lockstep", None, "backend.batched.lockstep", {}),
    ("repro.backend.batched.LaneGroup", ("compute",), "backend.batched.compute",
     {"tally": _tally_lanes}),
    ("repro.distributed.sync.SyncDataParallelTrainer", ("__init__",),
     "distributed.trainer_build", {}),
    ("repro.distributed.sync.SyncDataParallelTrainer", ("evaluate",),
     "distributed.evaluate", {}),
    ("repro.distributed.sync.SyncDataParallelTrainer",
     ("history_magnitude", "mvar_magnitude"), "distributed.condition_probe", {}),
    ("repro.distributed.sync.SyncDataParallelTrainer", ("train",),
     "distributed.train_loop", {}),
    ("repro.training.checkpoints.Checkpoint", ("capture",), "state.snapshot", {}),
    ("repro.training.checkpoints.Checkpoint", ("restore",), "state.restore",
     {"tally": _tally_restore}),
    ("repro.state.training_state_digest", None, "state.digest", {}),
    ("repro.core.faults.hardware.sample_fault", None, "faults.sample", {}),
    ("repro.core.faults.software_models.SoftwareFaultModel", ("apply",),
     "faults.inject", {"subclasses": True}),
    ("repro.core.faults.injector.FaultInjector", ("arm",), "faults.inject", {}),
    ("repro.core.analysis.propagation.PropagationTracer", ("after_step",),
     "faults.propagation", {}),
    ("repro.core.faults.campaign.Campaign",
     ("run_experiment", "run_experiment_batch"), "faults.run_experiment", {}),
    ("repro.core.mitigation.detector.HardwareFailureDetector", ("check",),
     "mitigation.detector_check", {}),
    ("repro.core.analysis.classify.classify_outcome", None,
     "analysis.classify", {}),
    ("repro.core.analysis.classify.classify_outcomes", None,
     "analysis.classify", {}),
    ("repro.core.analysis.classify.classify_inference_rows", None,
     "analysis.classify", {}),
    ("repro.engine.scheduler.CampaignEngine", ("run",), "engine.run", {}),
    ("repro.engine.store.ResultStore", ("append",), "engine.store_append",
     {"ends_unit": True}),
    ("repro.observe.tracer.Tracer", ("emit",), "observe.trace_emit",
     {"tally": _tally_emit}),
    ("repro.observe.merge.merge_campaign_shards", None,
     "observe.trace_merge", {}),
    ("repro.serving.batcher.DynamicBatcher", ("submit",),
     "serving.batcher.submit", {"request": True}),
    ("repro.serving.session.InferenceSession", ("gather",),
     "serving.session.gather", {}),
    ("repro.serving.session.InferenceSession", ("forward",),
     "serving.session.forward", {}),
    ("repro.serving.session.FaultPlane", ("arm",), "serving.faultplane.arm", {}),
    # Not the program's: every callback the event loop runs.  On the loop
    # thread that is the batcher's coalescing, predict/submit bookkeeping
    # and the load generator's own coroutines, which no probe above sees.
    ("asyncio.events.Handle", ("_run",), "serving.loop_step", {}),
)


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and walk the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return None
        return obj
    return None


def _all_subclasses(cls):
    seen = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in seen:
            seen.append(sub)
            stack.extend(sub.__subclasses__())
    return seen


class Probes:
    """Installed wrappers, their spans, and the counts taken with them."""

    def __init__(self):
        self.missing: list[str] = []
        #: Span names at least one installed probe produces.
        self.installed: set[str] = set()
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list] = []
        self._patches: list[tuple] = []  # (owner, attr, had_own, original)
        self._unit = 0  # work units stored so far (campaign span keys)
        self._request_ids: dict[int, int] = {}  # id(payload) -> request no
        self._requests = 0
        self._batches = 0
        #: batch number -> request numbers it served.
        self.batch_requests: list[list[int]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack, local.key = [], [], None
            with self._lock:
                self._thread_spans.append(local.spans)
            return local.spans, local.stack

    def _sync_wrapper(self, fn, name, tally=None):
        counters = self.counters
        local = self._local

        def wrapper(*args, **kwargs):
            spans, stack = self._thread_state()
            key = local.key if local.key is not None else self._unit
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, key]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
                if tally is not None:
                    tally(args, counters)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _request_wrapper(self, fn, name):
        """Async: one root span per request, submit to response.  The
        span is not pushed on the thread's stack — coroutines interleave
        on one thread, so stack order would invent parents."""

        async def wrapper(batcher, payload):
            spans, _stack = self._thread_state()
            request = self._requests
            self._requests += 1
            self._request_ids[id(payload)] = request
            record = [name, _clock(), 0.0, -1, f"r{request}"]
            spans.append(record)
            try:
                return await fn(batcher, payload)
            finally:
                record[2] = _clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _unit_end_wrapper(self, fn, name):
        """A work unit ends when its result is stored: spans after this
        call are keyed to the next unit."""
        inner = self._sync_wrapper(fn, name)

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self._unit += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _execute_wrapper(self, fn):
        """The batcher's ``execute`` callable: a batch span on the
        executor thread that keys everything under it and remembers
        which requests it served."""
        inner = self._sync_wrapper(fn, "serving.execute")
        local = self._local

        def wrapper(payloads):
            self._thread_state()
            ids = self._request_ids
            self.batch_requests.append(
                [ids.pop(id(p), -1) for p in payloads])
            local.key = f"b{self._batches}"
            self._batches += 1
            try:
                return inner(payloads)
            finally:
                local.key = None

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------
    def _patch(self, owner, attr, replacement) -> None:
        namespace = vars(owner)
        self._patches.append((owner, attr, attr in namespace,
                              namespace.get(attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, options):
        if options.get("request"):
            return self._request_wrapper(fn, name)
        if options.get("ends_unit"):
            return self._unit_end_wrapper(fn, name)
        return self._sync_wrapper(fn, name, options.get("tally"))

    def _install_method(self, cls, attr, name, options) -> bool:
        owners = [cls] + (_all_subclasses(cls) if options.get("subclasses")
                          else [])
        found = False
        for owner in owners:
            fn = vars(owner).get(attr)
            if fn is None and owner is cls:
                fn = getattr(owner, attr, None)  # inherited, public on cls
            binder = type(fn) if isinstance(fn, (classmethod, staticmethod)) \
                else None
            if binder is not None:
                fn = fn.__func__
            if not inspect.isfunction(fn):
                continue
            span = name(owner) if callable(name) else name
            if options.get("suffix"):
                span = f"{span}.{attr}"
            wrapper = self._wrap(fn, span, options)
            self._patch(owner, attr, binder(wrapper) if binder else wrapper)
            self.installed.add(span)
            found = True
        return found

    def _install_function(self, dotted, fn, name, options) -> None:
        """A module-level function is bound by value wherever it was
        imported, so every loaded ``repro`` module holding it is patched."""
        wrapper = self._wrap(fn, name, options)
        self.installed.add(name)
        attr = dotted.rsplit(".", 1)[1]
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if vars(module).get(attr) is fn:
                self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Place every probe.  Counts restart here: a traced child
        installs once for set-up and again for the traced segments, and
        the counts are read against the latter's calls."""
        self.missing = []
        self.counters.clear()
        for dotted, attrs, name, options in PROBE_TABLE:
            target = _resolve(dotted)
            if target is None:
                self.missing.append(dotted)
            elif attrs is None:
                self._install_function(dotted, target, name, options)
            else:
                for attr in attrs:
                    if not self._install_method(target, attr, name, options):
                        self.missing.append(f"{dotted}.{attr}")

    def wrap_execute(self, batcher) -> None:
        """Instance-level probe on one batcher's ``execute`` callable."""
        self._patch(batcher, "execute", self._execute_wrapper(batcher.execute))
        self.installed.add("serving.execute")

    def remove(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self) -> list[list]:
        """All threads' spans in one list, parents re-indexed into it."""
        joined: list[list] = []
        with self._lock:
            thread_lists = list(self._thread_spans)
        for thread_no, thread_spans in enumerate(thread_lists):
            offset = len(joined)
            for name, start, end, parent, key in thread_spans:
                joined.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               key, thread_no])
        return joined


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus its direct children's."""
    own = [end - start for _name, start, end, *_rest in spans]
    for _name, start, end, parent, *_rest in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def covered_seconds(spans: list[list], start: float, end: float) -> float:
    """Wall-clock inside ``[start, end]`` with a synchronous span open on
    some thread (request spans wait rather than work, so they are left
    out)."""
    roots = sorted(
        (max(s[1], start), min(s[2], end)) for s in spans
        if s[3] < 0 and s[0] != "serving.batcher.submit"
        and s[2] > start and s[1] < end)
    covered = 0.0
    edge = start
    for lo, hi in roots:
        if hi > edge:
            covered += hi - max(lo, edge)
            edge = hi
    return covered
