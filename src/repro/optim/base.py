"""Optimizer base class with first-class *history terms*.

The paper's central finding is that optimizer gradient-history values
(``m_t`` and ``v_t`` in Adam) are one of the two state classes through
which hardware faults persist across training iterations (Observation 2,
Sec. 4.2.6).  Every optimizer here therefore exposes:

* :meth:`history_magnitude` — the largest absolute history value, read by
  the detection technique each iteration (Sec. 5.1);
* :meth:`normalizes_gradients` — whether the optimizer divides by a
  gradient-history statistic.  Per Sec. 4.2.3, SlowDegrade and
  SharpSlowDegrade require a normalizing optimizer, while SharpDegrade
  requires a non-normalizing one.

Where the history lives
-----------------------
An optimizer's state is its iteration count plus one fused buffer per
history slot (:attr:`Optimizer.SLOTS`), and those buffers are segments
``opt.<slot>`` of the master replica's :class:`repro.state.StateArena`,
allocated by :meth:`Optimizer.bind_arena`.  There is no second copy: an
optimizer steps only once bound, every step is a handful of whole-buffer
vectorized ops, and a snapshot (:class:`repro.training.checkpoints.Checkpoint`)
or digest (:func:`repro.state.training_state_digest`) reads the segments.

Update hooks
------------
The weight-update operation itself is an injectable op site: the paper
notes that with SGD, large faulty weights can be created by a fault during
"the operation that adds gradients to current weight values" (Sec. 4.2.2).
``set_update_hook`` installs a one-shot hook ``hook(update, info) ->
update`` applied to the per-parameter update tensor.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.module import Parameter
from repro.state.arena import OPT_SEGMENT_PREFIX

UpdateHook = Callable[[np.ndarray, dict], np.ndarray]


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Construction records the hyperparameters; :meth:`bind_arena` gives
    the optimizer its state, zero-initialized segments of the arena laid
    out over exactly these parameters.  :meth:`step` refuses to run
    before that.
    """

    #: History slot names; each lives in the bound arena's ``opt.<name>``
    #: segment.
    SLOTS: tuple[str, ...] = ()

    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.iteration = 0
        self._update_hook: UpdateHook | None = None
        self._arena = None
        #: Slot name -> its fused segment of the bound arena.
        self.slots: dict[str, np.ndarray] = {}
        #: Slot name -> per-parameter views of that segment.
        self._views: dict[str, list[np.ndarray]] = {}
        self._update_buf: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Apply one update using the gradients in the arena's ``grad``
        segment."""
        raise NotImplementedError

    def normalizes_gradients(self) -> bool:
        """True if updates divide by a gradient-history statistic."""
        raise NotImplementedError

    def history_magnitude(self) -> float:
        """Largest absolute gradient-history value across all slots."""
        return max_abs(list(self.slots.values()))

    def first_moment_arrays(self) -> list[np.ndarray]:
        """History values that are linear in gradients (Adam ``m``, SGD
        velocity) — checked against Algorithm 1's first-moment bound."""
        return []

    def second_moment_arrays(self) -> list[np.ndarray]:
        """History values quadratic in gradients (Adam ``v``, RMSProp
        ``sq``) — checked against the *squared* bound."""
        return []

    # ------------------------------------------------------------------
    # Arena binding
    # ------------------------------------------------------------------
    def bind_arena(self, arena) -> None:
        """Allocate every slot as a fused segment of ``arena``.

        The arena must be built over exactly this optimizer's parameters
        (same objects, same order).
        """
        if [id(p) for p in self.params] != [id(p) for p in arena.parameters]:
            raise ValueError(
                "arena layout does not match this optimizer's parameter list"
            )
        self._arena = arena
        self._update_buf = arena.scratch()
        self._scratch = arena.scratch()
        for name in self.SLOTS:
            arena.allocate_segment(OPT_SEGMENT_PREFIX + name)
        self.refresh_arena_views()

    def refresh_arena_views(self) -> None:
        """Re-read the bound arena's slot segments and their views.

        :meth:`repro.state.StateArena.rebind_segment` repoints a segment
        at caller-provided storage (a backend's lane group adopts arenas
        into ``(E, ...)`` row stacks this way); calling this afterwards
        keeps the optimizer updating the live storage.
        """
        self.slots = {name: self._arena.segments[OPT_SEGMENT_PREFIX + name]
                      for name in self.SLOTS}
        self._views = {name: self._arena.views(OPT_SEGMENT_PREFIX + name)
                       for name in self.SLOTS}

    @property
    def arena(self):
        """The bound :class:`~repro.state.StateArena`, or ``None``."""
        return self._arena

    def _begin_step(self) -> int:
        """Count the step about to run and return its number; refuses an
        unbound optimizer, which has no state to step."""
        if self._arena is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a StateArena; "
                "call bind_arena() before step()")
        self.iteration += 1
        return self.iteration

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def set_update_hook(self, hook: UpdateHook | None) -> None:
        self._update_hook = hook

    def _apply_update(self, update: np.ndarray) -> None:
        """Subtract the fused ``update`` from the parameters: one
        vectorized subtraction when no hook is installed, else the hook
        applied to each parameter's view in turn."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self._update_hook is None:
                np.subtract(self._arena.param, update, out=self._arena.param)
                return
            for index, (param, view) in enumerate(
                    zip(self.params, self.index_views(update))):
                view = self._update_hook(
                    view, {"param": param, "index": index,
                           "iteration": self.iteration})
                np.subtract(param.data, view, out=param.data, casting="unsafe")

    def index_views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a buffer with the arena's layout."""
        return [
            buf[e.offset : e.offset + e.size].reshape(e.shape)
            for e in self._arena.index.values()
        ]


def max_abs(values: list[np.ndarray]) -> float:
    """Largest absolute entry across arrays; inf/NaN map to inf."""
    worst = 0.0
    for arr in values:
        if arr.size == 0:
            continue
        with np.errstate(invalid="ignore"):
            m = np.abs(arr).max()
        if not np.isfinite(m):
            return float("inf")
        worst = max(worst, float(m))
    return worst
