"""Request queue and dynamic batcher for the inference server.

The batcher is the shape of every production serving stack (Triton,
TorchServe, vLLM's continuous batching ancestor): requests land in a
bounded queue, a collector coalesces them into batches of at most
``max_batch``, and a batch is released early once the oldest request has
waited ``max_wait_s`` — latency is traded for throughput explicitly, at
two knobs.  A full queue sheds instead of buffering unboundedly
(backpressure), so overload degrades p99 and availability, never memory.

The batcher is policy-free: it knows nothing about models or faults.
``execute`` is a synchronous callable ``list[payload] -> list[result]``
run on one worker thread the batcher owns, so the event loop keeps
accepting and coalescing the *next* batch while the current one computes
— the same pipelining that makes dynamic batching pay off on real
hardware.  Batches run one at a time, so one thread is all they need; the
loop's default pool would spread consecutive batches over up to
``min(32, cpu + 4)`` threads, each with its own malloc arena.

Coalescing costs per batch, not per request: the collector takes what is
already queued without waiting, and sleeps — on one future that a submit
or :meth:`DynamicBatcher.stop` resolves, plus one timer while a batch
has ``max_wait_s`` left — only when the queue is empty.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor


class ShedError(RuntimeError):
    """Raised to a submitter when the bounded queue is full (overload)."""


class _Request:
    __slots__ = ("payload", "future")

    def __init__(self, payload, future):
        self.payload = payload
        self.future = future


class DynamicBatcher:
    """Coalesce submitted payloads into batches for ``execute``.

    Parameters
    ----------
    execute:
        Synchronous ``list[payload] -> list[result]`` (one result per
        payload, same order).  Runs on the batcher's one worker thread.
    max_batch:
        Hard cap on batch size; a batch is released immediately when it
        fills.
    max_wait_s:
        How long the oldest request in a forming batch may wait for
        company before the batch is released part-full.
    queue_cap:
        Bound on queued (not-yet-batched) requests; ``submit`` raises
        :class:`ShedError` beyond it.
    """

    def __init__(self, execute, max_batch: int = 32,
                 max_wait_s: float = 0.005, queue_cap: int = 256):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        self.execute = execute
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_cap = int(queue_cap)
        self._queue: deque[_Request] = deque()
        #: What the idle collector sleeps on; a submit or stop() wakes it.
        self._wakeup: asyncio.Future | None = None
        self._stopping = False
        #: Lifetime stats, read by the serving engine's sampler.
        self.submitted = 0
        self.shed = 0
        self.batches = 0
        self.batch_sizes: list[int] = []

    @property
    def depth(self) -> int:
        """Requests queued but not yet claimed by a batch."""
        return len(self._queue)

    async def submit(self, payload):
        """Enqueue one payload; resolves to its result from ``execute``.

        Raises :class:`ShedError` when the queue is full, the batcher is
        stopping, or its collector exited before serving the request —
        the caller turns that into an HTTP 503.
        """
        if self._stopping:
            self.shed += 1
            raise ShedError("batcher is stopping")
        if len(self._queue) >= self.queue_cap:
            self.shed += 1
            raise ShedError(f"queue full ({self.queue_cap} waiting)")
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Request(payload, future))
        self.submitted += 1
        self._wake()
        return await future

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)

    async def _sleep(self, timeout: float | None) -> None:
        """Until a submit or :meth:`stop` wakes the collector, or
        ``timeout`` seconds pass."""
        loop = asyncio.get_running_loop()
        self._wakeup = loop.create_future()
        timer = None if timeout is None else loop.call_later(
            timeout, self._wake)
        try:
            await self._wakeup
        finally:
            self._wakeup = None
            if timer is not None:
                timer.cancel()

    async def _collect(self) -> list[_Request] | None:
        """Gather one batch, or ``None`` when stopping and drained."""
        queue = self._queue
        while not queue:
            if self._stopping:
                return None
            await self._sleep(None)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_wait_s
        batch: list[_Request] = []
        while True:
            while queue and len(batch) < self.max_batch:
                batch.append(queue.popleft())
            # Stopping: no request can arrive to join this batch.
            if len(batch) == self.max_batch or self._stopping:
                return batch
            remaining = deadline - loop.time()
            if remaining <= 0:
                return batch
            await self._sleep(remaining)

    async def run(self) -> None:
        """Collector loop: drive until :meth:`stop` and the queue drains.

        However it exits — cancelled, or on an error of its own — the
        batch in flight and every queued request fail with
        :class:`ShedError`, later submits shed, and the worker thread is
        shut down: no request waits on a collector that is gone.
        """
        loop = asyncio.get_running_loop()
        worker = ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="batcher")
        batch: list[_Request] = []
        try:
            while True:
                batch = await self._collect()
                if batch is None:
                    return
                payloads = [request.payload for request in batch]
                try:
                    results = await loop.run_in_executor(
                        worker, self.execute, payloads)
                    if len(results) != len(batch):
                        raise RuntimeError(
                            f"execute returned {len(results)} results for "
                            f"{len(batch)} payloads")
                except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(exc)
                    continue
                self.batches += 1
                self.batch_sizes.append(len(batch))
                for request, result in zip(batch, results):
                    if not request.future.done():
                        request.future.set_result(result)
        finally:
            # A cancelled batch may still be computing: the thread exits
            # once it is done, without blocking the loop.
            worker.shutdown(wait=False)
            self._stopping = True
            stranded = (batch or []) + list(self._queue)
            self._queue.clear()
            for request in stranded:
                if not request.future.done():
                    self.shed += 1
                    request.future.set_exception(
                        ShedError("batcher stopped before serving it"))

    def stop(self) -> None:
        """Stop accepting; :meth:`run` exits after draining the queue."""
        self._stopping = True
        self._wake()
