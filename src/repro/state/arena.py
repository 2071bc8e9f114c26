"""Fused training-state arena: the one place training state lives.

The mitigation story of the paper (Sec. 5.2) depends on per-iteration
state capture being cheap enough to run always-on.  A model's training
state, however, is naturally scattered: every :class:`~repro.nn.module.Parameter`
owns its own ``data``/``grad`` arrays.  Snapshotting or broadcasting that
state means one Python-level copy per array — hundreds of small
allocations per iteration on the 8-device trainer.

:class:`StateArena` lays the same state out as *views into contiguous fused
float32 buffers*, one buffer ("segment") per state class:

* ``"param"`` — all master/replica parameter values, concatenated;
* ``"grad"``  — their gradients, same layout;
* ``"opt.<slot>"`` — one segment per optimizer slot (Adam ``m``/``v``,
  SGD ``velocity``, RMSProp ``sq``), allocated by
  :meth:`repro.optim.Optimizer.bind_arena` (same layout again).  These
  segments are the optimizer's only state: no per-parameter copy exists.

Every segment shares a single stable ``name -> (offset, size, shape)``
index built from ``Module.named_parameters()`` traversal order.  The
parameters themselves are *rebound*: ``param.data`` and ``param.grad``
become views into the fused buffers, so all existing layer code (which
accumulates gradients in place) keeps working unchanged, while the layers
above can operate on whole state classes with single vectorized ops:

* gradient averaging / weight broadcast: one ``axpy``/``copyto`` per replica;
* optimizer ``step()`` / ``history_magnitude()``: one pass over each segment;
* snapshot/restore: one buffer copy per segment.

What stays *outside* the segments: BatchNorm moving statistics.  They are
per-replica state that is never averaged across devices (that locality is
the mechanism behind the LowTestAccuracy outcome, Sec. 4.3.3), and the
layer rebinds them on every forward pass.  The arena keeps the list of
modules that carry them and has the one capture
(:meth:`StateArena.capture_extra`) and the one load
(:meth:`StateArena.load_extra`) of that state, which snapshots
(:mod:`repro.training.checkpoints`), the backend's given device shares
and the arithmetic rewind all use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module, Parameter

#: The two segments every arena starts with.
PARAM_SEGMENT = "param"
GRAD_SEGMENT = "grad"

#: Prefix for optimizer-slot segments (``opt.m``, ``opt.v``, ...).
OPT_SEGMENT_PREFIX = "opt."


@dataclass(frozen=True)
class ArenaEntry:
    """Placement of one named parameter inside every fused segment."""

    offset: int
    size: int
    shape: tuple[int, ...]


class ArenaLayoutError(ValueError):
    """Raised when a model cannot be laid out as an arena (e.g. tied
    parameters registered under two names)."""


class StateArena:
    """Contiguous fused float32 buffers behind a model's training state.

    Constructing an arena *rebinds* the model's parameters in place:
    current values are copied into the fused buffers and each parameter's
    ``data``/``grad`` become views.  All segments share one layout, so a
    parameter's views into different segments are always shape-aligned.
    """

    def __init__(self, model: Module):
        self.model = model
        index: dict[str, ArenaEntry] = {}
        params: list[Parameter] = []
        seen: set[int] = set()
        offset = 0
        for name, param in model.named_parameters():
            if name in index:
                raise ArenaLayoutError(f"duplicate parameter name: {name!r}")
            if id(param) in seen:
                raise ArenaLayoutError(
                    f"parameter {name!r} is registered twice (tied weights); "
                    "the arena requires each leaf to own its storage"
                )
            seen.add(id(param))
            index[name] = ArenaEntry(offset, param.size, param.shape)
            params.append(param)
            offset += param.size
        if offset == 0:
            raise ArenaLayoutError("model has no parameters to lay out")
        self.index = index
        self.total = offset
        self.parameters: list[Parameter] = params
        #: Modules carrying non-parameter persistent state (BatchNorm
        #: moving statistics).  Cached so per-iteration capture
        #: (:meth:`capture_extra`) does not re-walk the module tree.
        self.stateful_modules: list[tuple[str, Module]] = [
            (mod_name, module)
            for mod_name, module in model.named_modules()
            if module.extra_state()
        ]
        self.segments: dict[str, np.ndarray] = {
            PARAM_SEGMENT: np.empty(self.total, dtype=np.float32),
            GRAD_SEGMENT: np.empty(self.total, dtype=np.float32),
        }
        for param, data_view, grad_view in zip(
            params, self.views(PARAM_SEGMENT), self.views(GRAD_SEGMENT)
        ):
            data_view[...] = param.data
            grad_view[...] = param.grad
            param.data = data_view
            param.grad = grad_view

    # ------------------------------------------------------------------
    # Segment access
    # ------------------------------------------------------------------
    @property
    def param(self) -> np.ndarray:
        """The fused parameter buffer."""
        return self.segments[PARAM_SEGMENT]

    @property
    def grad(self) -> np.ndarray:
        """The fused gradient buffer."""
        return self.segments[GRAD_SEGMENT]

    def allocate_segment(self, name: str) -> np.ndarray:
        """Allocate (or return) a zero-initialized fused segment."""
        if name not in self.segments:
            self.segments[name] = np.zeros(self.total, dtype=np.float32)
        return self.segments[name]

    def scratch(self) -> np.ndarray:
        """A fresh unmanaged buffer with the arena's layout."""
        return np.empty(self.total, dtype=np.float32)

    def rebind_segment(self, name: str, buffer: np.ndarray) -> np.ndarray:
        """Swap a segment's backing storage (e.g. into a row of a
        lane group's experiment stacks).

        The current contents are copied into ``buffer``, the segment map
        is repointed, and — for the ``param``/``grad`` segments — every
        parameter's ``data``/``grad`` view is rebound so layer code keeps
        mutating the new storage.  Returns the old backing buffer.
        """
        if buffer.dtype != np.float32 or buffer.size != self.total:
            raise ArenaLayoutError(
                f"segment {name!r} needs a float32 buffer of "
                f"{self.total} elements, got {buffer.dtype}[{buffer.size}]"
            )
        old = self.segments[name]
        np.copyto(buffer, old.ravel())
        self.segments[name] = buffer
        if name in (PARAM_SEGMENT, GRAD_SEGMENT):
            for param, view in zip(self.parameters, self.views(name)):
                if name == PARAM_SEGMENT:
                    param.data = view
                else:
                    param.grad = view
        return old

    # ------------------------------------------------------------------
    # Extra state (outside the segments)
    # ------------------------------------------------------------------
    def capture_extra(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """A copy of every stateful module's extra state, as
        ``[(module_name, {key: array}), ...]`` in :attr:`stateful_modules`
        order — the format of one replica's ``Checkpoint.extra``."""
        return [(mod_name, {k: v.copy() for k, v in module.extra_state().items()})
                for mod_name, module in self.stateful_modules]

    def load_extra(self, extra: list[tuple[str, dict[str, np.ndarray]]]) -> None:
        """Load state :meth:`capture_extra` took (the module copies it,
        so ``extra`` stays reusable)."""
        for (_, module), (_, state) in zip(self.stateful_modules, extra):
            module.load_extra_state(state)

    # ------------------------------------------------------------------
    # The stable name index
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """All parameter names in layout order."""
        return list(self.index)

    def entry(self, name: str) -> ArenaEntry:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(
                f"unknown arena name {name!r}; known: {sorted(self.index)[:8]}..."
            ) from None

    def view(self, segment: str, name: str) -> np.ndarray:
        """The named parameter's view into one segment."""
        entry = self.entry(name)
        buf = self.segments[segment]
        return buf[entry.offset : entry.offset + entry.size].reshape(entry.shape)

    def views(self, segment: str) -> list[np.ndarray]:
        """Per-parameter views into one segment, in layout order."""
        buf = self.segments[segment]
        return [
            buf[e.offset : e.offset + e.size].reshape(e.shape)
            for e in self.index.values()
        ]

    @staticmethod
    def owner_module(name: str) -> str:
        """The qualified module path owning an arena name
        (``"0.conv1.weight" -> "0.conv1"``)."""
        module, _, _ = name.rpartition(".")
        return module

    def resolve(self, name: str) -> tuple[str, str]:
        """Split an arena name into ``(module_path, leaf)``; raises
        ``KeyError`` for names not in the index."""
        self.entry(name)
        module, _, leaf = name.rpartition(".")
        return module, leaf

    def index_of(self, name: str) -> int:
        """Position of a name in layout order (= optimizer param index)."""
        for i, known in enumerate(self.index):
            if known == name:
                return i
        raise KeyError(f"unknown arena name {name!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total bytes across all live segments."""
        return sum(buf.nbytes for buf in self.segments.values())

    def compatible_with(self, other: "StateArena") -> bool:
        """True if ``other`` has the identical layout (same names, same
        placements) — the precondition for raw buffer transfer."""
        return self.index == other.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateArena({len(self.index)} leaves, {self.total} elements, "
            f"segments={sorted(self.segments)})"
        )


def training_state_digest(trainer) -> str:
    """sha256 over a trainer's final params, optimizer slot segments (in
    slot-name order), and per-replica extra state (BatchNorm moving
    statistics), in a deterministic order.

    This is the repo's definition of "byte-identical final training
    state": the golden traces pin it across machines and backends, and
    the replay gate verifies it per experiment.  The digest reads only
    values the training loop already computed, so it is safe to take on
    a live trainer.
    """
    h = hashlib.sha256()
    for name, param in sorted(trainer.master.named_parameters()):
        h.update(name.encode())
        h.update(param.data.tobytes())
    slots = trainer.optimizer.slots
    for name in sorted(slots):
        h.update(slots[name].tobytes())
    for replica in trainer.replicas:
        for _mod_name, module in sorted(replica.named_modules()):
            for _k, v in sorted(module.extra_state().items()):
                h.update(v.tobytes())
    return h.hexdigest()


def build_arenas(replicas: list[Module]) -> list[StateArena]:
    """One arena per replica, all with the first one's layout.

    Raises :class:`ArenaLayoutError` when a replica cannot be laid out
    (tied weights, no parameters) or the replicas' layouts differ; the
    message names the offending parameter.  There is no arena-less
    trainer to fall back to.
    """
    arenas = [StateArena(replica) for replica in replicas]
    first = arenas[0].index
    for device, arena in enumerate(arenas[1:], start=1):
        if not arena.compatible_with(arenas[0]):
            name = next(n for n in (*arena.index, *first)
                        if arena.index.get(n) != first.get(n))
            raise ArenaLayoutError(
                f"replica {device} lays out parameter {name!r} differently "
                f"from replica 0 ({arena.index.get(name)} vs {first.get(name)})")
    return arenas
