"""Batched ``(E, ...)`` arena layout for experiment-stacked execution.

The fused :class:`~repro.state.arena.StateArena` lays one replica's
parameters, gradients, and optimizer slots out as flat ``float32``
buffers.  :class:`ExperimentStacks` extends that layout with a leading
*experiment* dimension: E experiments x D devices of parameters and
gradients live in one C-contiguous ``(E * D, total)`` stack (rows are
experiment-major: experiment ``e``'s device ``d`` is row ``e * D + d``),
and each optimizer slot lives in an ``(E, total)`` stack (slots exist
only on master arenas).

Adoption reuses the arena's own :meth:`~StateArena.rebind_segment`: a
row of a C-contiguous 2-D stack is itself a contiguous ``(total,)``
buffer, so every existing ``name -> (offset, size, shape)`` index entry
keeps addressing its experiment's slice, and every consumer of arena
views (modules, optimizer, checkpoints, detectors) keeps working
untouched.  Vectorized code addresses *across* experiments through
:attr:`param` / :attr:`grad` / :attr:`opt` instead.

BatchNorm moving statistics deliberately stay *outside* the stacks: they
are per-device module state the paper never averages (the mechanism
behind LowTestAccuracy), and they already live per-replica — stacking E
experiments adds nothing to share.
"""

from __future__ import annotations

import numpy as np

from repro.state.arena import GRAD_SEGMENT, OPT_SEGMENT_PREFIX, PARAM_SEGMENT, StateArena


class ExperimentStacks:
    """Contiguous ``(E * D, total)`` state stacks adopted row-by-row.

    Lazy: buffers are allocated at the first :meth:`adopt` call, when
    the layout (parameter total, device count, optimizer slot names) is
    known.  Experiment slots are never reused — a finished experiment's
    rows stay valid so its final state remains readable (classification,
    digests) after batch-mates finish.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self.num_devices: int | None = None
        self.total: int | None = None
        #: ``(capacity * D, total)`` parameter / gradient row stacks.
        self.param: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        #: slot name -> ``(capacity, total)`` optimizer-slot stack.
        self.opt: dict[str, np.ndarray] = {}
        self.experiments = 0
        self._index = None

    # ------------------------------------------------------------------
    # Adoption
    # ------------------------------------------------------------------
    def _allocate(self, master: StateArena, num_devices: int,
                  slot_names: list[str]) -> None:
        self.num_devices = int(num_devices)
        self.total = master.total
        self._index = master.index
        rows = self.capacity * self.num_devices
        self.param = np.empty((rows, self.total), dtype=np.float32)
        self.grad = np.empty((rows, self.total), dtype=np.float32)
        self.opt = {
            name: np.empty((self.capacity, self.total), dtype=np.float32)
            for name in slot_names
        }

    def adopt(self, arenas: list[StateArena], optimizer) -> int:
        """Rebind one experiment's arenas into the stacks.

        ``arenas`` is the experiment's per-device arena list (master
        first); ``optimizer`` is the experiment's arena-bound optimizer,
        whose slot views are refreshed after its ``opt.*`` segments move
        into the stacks.  Returns the experiment slot index.
        """
        master = arenas[0]
        slot_names = sorted(optimizer.slots)
        if self.param is None:
            self._allocate(master, len(arenas), slot_names)
        else:
            if master.index != self._index:
                raise ValueError("arena layout differs from the stack layout")
            if len(arenas) != self.num_devices:
                raise ValueError(
                    f"expected {self.num_devices} device arenas, got {len(arenas)}")
            if slot_names != sorted(self.opt):
                raise ValueError(
                    f"optimizer slots {slot_names} differ from the stack's "
                    f"{sorted(self.opt)}")
        if self.experiments >= self.capacity:
            raise ValueError(f"experiment stack is full ({self.capacity})")
        exp = self.experiments
        self.experiments += 1
        base = exp * self.num_devices
        for d, arena in enumerate(arenas):
            arena.rebind_segment(PARAM_SEGMENT, self.param[base + d])
            arena.rebind_segment(GRAD_SEGMENT, self.grad[base + d])
        for name in slot_names:
            master.rebind_segment(f"{OPT_SEGMENT_PREFIX}{name}", self.opt[name][exp])
        optimizer.refresh_arena_views()
        return exp

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------
    def row(self, experiment: int, device: int) -> int:
        """Stack row of one (experiment, device) lane."""
        return experiment * self.num_devices + device

    def experiment_rows(self, experiment: int) -> slice:
        """Row slice covering one experiment's device lanes."""
        base = experiment * self.num_devices
        return slice(base, base + self.num_devices)

    @property
    def nbytes(self) -> int:
        """Allocated stack bytes (0 before the first adoption)."""
        total = 0
        for buf in (self.param, self.grad, *self.opt.values()):
            if buf is not None:
                total += buf.nbytes
        return total
