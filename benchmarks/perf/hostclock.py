"""Host-speed calibration for wall-clock measurements on a shared host.

The sandbox this benchmark runs in is a 2-vCPU VM whose cores change
speed under it: the same single-threaded NumPy loop takes 34 ms or
70 ms depending on the second it runs in, with no steal time reported
to the guest (README, "Why times are host-normalised").  Raw medians of
identical runs therefore spread 10-20 %, wider than any regression
bound worth having.

:class:`HostClock` samples a small fixed reference kernel on the
measuring thread every ``interval_s`` (an ``ITIMER_REAL`` signal, so no
extra thread competes for the two cores) and converts a wall-clock
interval into *reference seconds*: the time the same work would have
taken had the host run the reference kernel at its nominal pace
throughout.  Work done in a slice ``dt`` is proportional to
``dt / ref``, so an interval's normalised length is
``duration * mean(REF_NOMINAL_S / ref_i)`` over the samples inside it.
The kernel shares nothing with ``src/``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: The reference kernel's duration on this host class when nothing
#: contends for the core (the low mode of its distribution).  It only
#: fixes the unit: normalised seconds equal wall seconds on a quiet host.
REF_NOMINAL_S = 0.00062

#: Seconds between reference samples.  One sample costs ~0.6 ms, so the
#: sampler taxes the measured work by ~3 % — identically on every commit.
SAMPLE_INTERVAL_S = 0.02


class _Kernel:
    """The reference work: the instruction mix of the repo's hot path
    (strided window gather, small GEMM, elementwise + reduction,
    interpreter dispatch) on buffers that stay inside L2."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.random((8, 8, 18, 18), dtype=np.float32)
        self.matrix = rng.random((96, 96), dtype=np.float32)
        self.vector = rng.random(1 << 16, dtype=np.float32)

    def __call__(self) -> float:
        # Thread CPU time: a sample that waited for the interpreter lock
        # or was descheduled behind the batch executor still reads only
        # how fast the core ran it.
        start = time.thread_time()
        windows = np.lib.stride_tricks.sliding_window_view(
            self.image, (3, 3), axis=(2, 3))
        np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        for _ in range(6):
            self.matrix @ self.matrix
        scaled = self.vector * 1.01
        np.maximum(scaled, 0.5, out=scaled)
        scaled.sum()
        total = 0
        for i in range(1500):
            total += i * i
        return time.thread_time() - start


class HostClock:
    """Interleaved reference sampling and interval normalisation."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = float(interval_s)
        self._kernel = _Kernel()
        self._times: list[float] = []
        self._refs: list[float] = []
        self._previous_handler = None
        # Lookup arrays, rebuilt when samples have arrived since.
        self._t = self._cum = np.empty(0)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _on_timer(self, _signum, _frame) -> None:
        now = time.perf_counter()
        self._refs.append(self._kernel())
        self._times.append(now)

    def start(self) -> None:
        """Begin sampling (main thread only: signals are delivered there)."""
        self._kernel()  # first call pays the allocator warm-up
        self._on_timer(None, None)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
        self._on_timer(None, None)

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        count = len(self._times)
        if count != len(self._t):
            self._t = np.asarray(self._times[:count])
            speed = REF_NOMINAL_S / np.asarray(self._refs[:count])
            self._cum = np.concatenate(([0.0], np.cumsum(speed)))

    def speed(self, starts, ends) -> np.ndarray:
        """Mean host speed (1.0 = nominal) over each ``[start, end]``.

        An interval too short to contain a sample borrows the two
        samples around it.
        """
        self._refresh()
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        last = len(self._t)
        lo = np.searchsorted(self._t, starts, side="left")
        hi = np.searchsorted(self._t, ends, side="right")
        empty = hi <= lo
        lo = np.where(empty, np.maximum(lo - 1, 0), lo)
        hi = np.where(empty, np.minimum(lo + 2, last), hi)
        return (self._cum[hi] - self._cum[lo]) / (hi - lo)

    def normalise(self, starts, ends) -> np.ndarray:
        """Reference seconds for each wall-clock interval."""
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        return (ends - starts) * self.speed(starts, ends)

    def summary(self) -> dict:
        """The host stamp for a result: how fast and how steady it was."""
        refs = np.asarray(self._refs)
        q25, q50, q75 = np.percentile(refs, [25, 50, 75])
        return {
            "ref_nominal_s": REF_NOMINAL_S,
            "ref_samples": int(refs.size),
            "ref_median_s": float(q50),
            "ref_iqr_frac": float((q75 - q25) / q50),
            "sample_interval_s": self.interval_s,
        }
