"""Low-overhead counters and histograms.

A serving engine counts every request, batch and injected fault, so
its instrumentation must be cheap enough to leave on for millions of
requests.  These metrics are built accordingly:

* a :class:`Counter` increment is one float add on a ``__slots__``
  instance;
* a :class:`Histogram` observation is one ``np.searchsorted`` into a
  precomputed bound array plus one integer bucket increment — no
  per-event allocation, ever (the buckets are a fixed ``int64`` array).

There is no registry: the one object that updates a metric (a
``ServingEngine``, whose batcher thread and request handlers share its
process) holds it as an attribute and samples it by name.  A campaign's
numbers come from its ``CampaignState`` instead, because campaign code
runs in forked workers, where an increment never reaches the parent.
"""

from __future__ import annotations

import numpy as np

#: Default histogram bounds: geometric decades from 1us to 100s, the
#: range of everything this codebase times (bucket edges in seconds).
DEFAULT_BOUNDS = tuple(float(b) for b in np.geomspace(1e-6, 100.0, 25))


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def summary(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Fixed-bucket histogram over precomputed bounds.

    ``counts[i]`` holds observations in ``(bounds[i-1], bounds[i]]``;
    the first bucket is the underflow and the last the overflow, so
    every observation lands somewhere without branching.
    """

    __slots__ = ("name", "_bounds", "counts", "_sum", "_max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS):
        self.name = name
        self._bounds = np.asarray(bounds, dtype=np.float64)
        if self._bounds.size == 0 or np.any(np.diff(self._bounds) <= 0):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = np.zeros(self._bounds.size + 1, dtype=np.int64)
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        self.counts[int(np.searchsorted(self._bounds, value))] += 1
        self._sum += value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @property
    def total(self) -> float:
        return self._sum

    def mean(self) -> float:
        n = self.count
        return self._sum / n if n else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q`` quantile."""
        n = self.count
        if n == 0:
            return 0.0
        rank = q * n
        cumulative = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank, side="left"))
        if bucket >= self._bounds.size:
            return self._max
        return float(self._bounds[bucket])

    def reset(self) -> None:
        self.counts[:] = 0
        self._sum = 0.0
        self._max = 0.0

    def summary(self) -> dict:
        return {"type": "histogram", "count": self.count,
                "sum": self._sum, "mean": self.mean(), "max": self._max,
                "p50": self.quantile(0.5), "p99": self.quantile(0.99)}
