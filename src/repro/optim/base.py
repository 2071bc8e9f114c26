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
  requires a non-normalizing one;
* :meth:`state_dict` / :meth:`load_state_dict` — snapshots used by the
  two-iteration re-execution recovery (Sec. 5.2) and by FI campaigns.

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

UpdateHook = Callable[[np.ndarray, dict], np.ndarray]


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Optimizers run in one of two equivalent modes:

    * **scattered** (default) — per-parameter arrays, per-parameter update
      loop; and
    * **fused** — after :meth:`bind_arena`, every slot lives in a
      contiguous segment of a :class:`repro.state.StateArena` and
      ``step()`` runs a handful of whole-buffer vectorized ops.

    The fused path computes the exact same elementwise expressions over
    the exact same float32 values, so the two modes are bit-identical;
    per-parameter slot lists (``self.m`` etc.) remain valid as views into
    the fused segments, keeping ``state_dict`` /
    ``first_moment_arrays`` / fault-injection contracts unchanged.
    """

    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.iteration = 0
        self._update_hook: UpdateHook | None = None
        self._arena = None
        self._fused_slots: dict[str, np.ndarray] = {}
        self._update_buf: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Apply one update using the gradients stored on the parameters."""
        raise NotImplementedError

    def normalizes_gradients(self) -> bool:
        """True if updates divide by a gradient-history statistic."""
        raise NotImplementedError

    def history_magnitude(self) -> float:
        """Largest absolute gradient-history value across all slots.

        Optimizers without history (plain SGD) return 0.0: the
        gradient-history necessary condition is structurally impossible.
        """
        return 0.0

    def first_moment_arrays(self) -> list[np.ndarray]:
        """History values that are linear in gradients (Adam ``m``, SGD
        velocity) — checked against Algorithm 1's first-moment bound."""
        return []

    def second_moment_arrays(self) -> list[np.ndarray]:
        """History values quadratic in gradients (Adam ``v``, RMSProp
        ``sq``) — checked against the *squared* bound."""
        return []

    # ------------------------------------------------------------------
    # Arena binding (fused mode)
    # ------------------------------------------------------------------
    def bind_arena(self, arena) -> None:
        """Move all optimizer slots into fused segments of ``arena``.

        The arena must be built over exactly this optimizer's parameters
        (same objects, same order).  Existing slot values are copied into
        the segments and the per-parameter slot lists are rebound in place
        as views, so every external reference stays valid.
        """
        if [id(p) for p in self.params] != [id(p) for p in arena.parameters]:
            raise ValueError(
                "arena layout does not match this optimizer's parameter list"
            )
        self._arena = arena
        self._update_buf = arena.scratch()
        self._scratch = arena.scratch()
        self._fused_slots = {}
        for name, slots in self._slot_arrays().items():
            segment = arena.allocate_segment(f"opt.{name}")
            views = arena.views(f"opt.{name}")
            for view, old in zip(views, slots):
                view[...] = old
            slots[:] = views
            self._fused_slots[name] = segment

    def refresh_arena_views(self) -> None:
        """Re-derive slot views after the bound arena's segments moved.

        :meth:`repro.state.StateArena.rebind_segment` repoints a segment
        at caller-provided storage (a backend's lane group adopts arenas
        into ``(E, ...)`` row stacks this way), which orphans the views
        and fused-segment references captured by :meth:`bind_arena`.
        Calling this re-reads the arena's current segments so the
        optimizer keeps updating the live storage.
        """
        if self._arena is None:
            return
        for name, slots in self._slot_arrays().items():
            slots[:] = self._arena.views(f"opt.{name}")
            self._fused_slots[name] = self._arena.segments[f"opt.{name}"]

    @property
    def arena(self):
        """The bound :class:`~repro.state.StateArena`, or ``None``."""
        return self._arena

    def fused_slot(self, name: str) -> np.ndarray:
        """The fused buffer behind one slot (fused mode only)."""
        return self._fused_slots[name]

    def _fused_max_abs(self, *segments: np.ndarray) -> float:
        """``max |.|`` across fused segments; inf/NaN map to inf (the
        same semantics as :func:`max_abs` over scattered slot lists)."""
        worst = 0.0
        for buf in segments:
            with np.errstate(invalid="ignore"):
                m = np.abs(buf).max()
            if not np.isfinite(m):
                return float("inf")
            worst = max(worst, float(m))
        return worst

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def set_update_hook(self, hook: UpdateHook | None) -> None:
        self._update_hook = hook

    def _apply_update(self, param: Parameter, update: np.ndarray, index: int) -> None:
        """Subtract ``update`` from ``param.data``, via the hook if set.

        Writes in place so arena-bound parameters keep their views."""
        if self._update_hook is not None:
            update = self._update_hook(
                update, {"param": param, "index": index, "iteration": self.iteration}
            )
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(param.data, update, out=param.data, casting="unsafe")

    def _apply_fused_update(self, update: np.ndarray) -> None:
        """Fused-mode weight update: one vectorized subtraction when no
        hook is installed, the per-parameter hook protocol otherwise."""
        if self._update_hook is None:
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(self._arena.param, update, out=self._arena.param)
            return
        index = self.index_views(update)
        for i, (param, view) in enumerate(zip(self.params, index)):
            self._apply_update(param, view, i)

    def index_views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a buffer with the arena's layout."""
        return [
            buf[e.offset : e.offset + e.size].reshape(e.shape)
            for e in self._arena.index.values()
        ]

    # ------------------------------------------------------------------
    # State snapshot / restore
    # ------------------------------------------------------------------
    def _slot_arrays(self) -> dict[str, list[np.ndarray]]:
        """Name -> per-parameter state arrays.  Subclasses override."""
        return {}

    def state_dict(self) -> dict:
        out: dict = {"iteration": self.iteration, "lr": self.lr}
        for name, slots in self._slot_arrays().items():
            out[name] = [np.array(s, copy=True) for s in slots]
        return out

    def load_state_dict(self, state: dict) -> None:
        self.iteration = int(state["iteration"])
        self.lr = float(state["lr"])
        slots = self._slot_arrays()
        for name, arrays in state.items():
            if name in ("iteration", "lr"):
                continue
            target = slots[name]
            for i, arr in enumerate(arrays):
                target[i][...] = arr


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
