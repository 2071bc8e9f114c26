"""Module base class for the mini DL framework.

The paper's artifact manually implements the backward pass of every
workload so that faults can be injected into backward-pass operations and
their effects propagated correctly (Appendix A.1).  We follow the same
design: every :class:`Module` implements an explicit ``forward`` and
``backward`` instead of relying on a taped autograd engine.  This makes
each operation (forward output, weight-gradient, input-gradient) an
addressable *op site* for fault injection.

Fault hooks
-----------
Each module carries three hook slots, one per op site kind:

``"forward"``
    applied to the module's forward output tensor,
``"weight_grad"``
    applied to every weight-gradient tensor the module produces,
``"input_grad"``
    applied to the input-gradient tensor returned by ``backward``.

A hook is a callable ``hook(tensor, site_info) -> tensor``.  The injection
engine (:mod:`repro.core.faults.injector`) installs one-shot hooks at the
chosen training iteration; in fault-free operation all slots are ``None``
and the hot path pays a single attribute check.

Lanes
-----
The execution backend steps L (experiment, device) replicas — by
default the D devices of one trainer — through one extra model instance
whose tensors carry one *leading lane axis*: inputs and gradients are
``(L,) + plain shape``, every parameter's ``data`` / ``grad`` is
``(L,) + param.shape``, and persistent extra state (BatchNorm moving
statistics) is ``(L,) + state shape``.  :attr:`Module.lanes` holds
that leading shape — ``()`` everywhere except on that one instance, where
:class:`~repro.backend.batched.LaneGroup` (and nothing else) sets it to
``(L,)`` per block of lanes.  Lanes never mix arithmetic: slice ``l`` of
every lane tensor is byte-identical to the plain call on lane ``l``'s
tensors, and a hook installed on a lane module receives the whole
``(L, ...)`` tensor.

A layer is *lane-native* when its one ``forward`` / ``backward`` is
written over trailing axes (``x.shape[-3:]``, ``axis=-2``,
``swapaxes(-1, -2)``, ``self.lanes`` where a leading count is needed), so
the same statements serve both cases, and its class body says
``lane_native = True``.  The declaration is read from the class's own
namespace, never inherited — a subclass that overrides the math must
declare (and be tested in ``tests/test_lane_native.py``) again.  A model
containing any undeclared module type steps device by device instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

HOOK_KINDS = ("forward", "weight_grad", "input_grad")

HookFn = Callable[[np.ndarray, dict], np.ndarray]

#: Replaced by every :meth:`Module.add_module` call; its identity stamps
#: the :meth:`Module.memoised` values, so any structural change anywhere
#: (and any copy or unpickling of a memo) sends the next lookup back to
#: the tree.
_structure = object()


class Parameter:
    """A trainable tensor with its gradient.

    Gradients are accumulated by ``backward`` calls and consumed by the
    optimizer.  ``data`` and ``grad`` are always float32 arrays.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class for all layers and composite blocks.

    Subclasses register parameters with :meth:`add_param` and children with
    :meth:`add_module`, implement :meth:`forward` (caching whatever the
    backward pass needs) and :meth:`backward` (consuming the cache,
    accumulating parameter gradients, and returning the input gradient).
    """

    #: Set to ``True`` in the class body of a layer whose kernels accept a
    #: leading lane axis (see the module docstring); not inherited.
    lane_native = False

    #: Whether ``backward`` must return the input gradient.  Only
    #: :func:`input_grad_dropped` clears it, on a model's input layer for
    #: one backward whose result nobody reads; a layer may then return
    #: ``None``.
    wants_input_grad = True

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self._fault_hooks: dict[str, HookFn | None] = {k: None for k in HOOK_KINDS}
        self._memos: dict[object, tuple[object, object]] = {}
        self.name = type(self).__name__
        self.training = True
        #: Leading lane shape of this instance's tensors: ``()`` or ``(L,)``.
        self.lanes: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Registration and traversal
    # ------------------------------------------------------------------
    def add_param(self, name: str, data: np.ndarray) -> Parameter:
        param = Parameter(data, name=f"{self.name}.{name}")
        self._params[name] = param
        setattr(self, name, param)
        return param

    def add_module(self, name: str, module: "Module") -> "Module":
        global _structure
        _structure = object()
        module.name = f"{self.name}.{name}"
        self._modules[name] = module
        setattr(self, name, module)
        return module

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its descendants."""
        yield from self._params.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._params.items():
            yield (f"{prefix}{name}", param)
        for cname, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{cname}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def memoised(self, key, build: Callable[["Module"], object]):
        """``build(self)``, memoised on this module under ``key`` until the
        next :meth:`add_module` call anywhere.  What ``build`` returns must
        not hold this module: the memo would make a reference cycle, and
        the module would outlive its last user until a cycle collection."""
        stamp, value = self._memos.get(key, (None, None))
        if stamp is not _structure:
            value = build(self)
            self._memos[key] = (_structure, value)
        return value

    def instances_of(self, cls: type) -> list[tuple[int, "Module"]]:
        """``(traversal index, module)`` for every ``cls`` instance in
        :meth:`modules` order, memoised — the per-iteration probes
        (moving-variance bound, dropout reseed) ask for the same list
        every step."""
        return self.memoised(cls, lambda model: [
            (i, m) for i, m in enumerate(model.modules()) if isinstance(m, cls)])

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for cname, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{cname}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def is_lane_native(self) -> bool:
        """Whether every module type in this tree declares itself
        ``lane_native`` in its own class body."""
        return all(vars(type(m)).get("lane_native", False) for m in self.modules())

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------
    # State snapshot / restore
    # ------------------------------------------------------------------
    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-parameter persistent state (e.g. BatchNorm moving stats)."""
        return {}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`extra_state`.  An override
        copies what it keeps, so callers pass ``state`` as is."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat snapshot of all parameters and extra state, copied."""
        out: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            out[f"param:{name}"] = param.data.copy()
        for mod_name, module in self.named_modules():
            for key, value in module.extra_state().items():
                out[f"state:{mod_name}:{key}"] = np.array(value, copy=True)
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot, in place.

        The state dict must cover every parameter and every extra-state
        leaf; missing or unexpected keys raise ``KeyError`` (a partial
        load would silently leave the remaining state stale).  Parameter
        values are written into the existing arrays, so arena views (see
        :mod:`repro.state`) survive a load.
        """
        params = dict(self.named_parameters())
        modules = dict(self.named_modules())
        expected = {f"param:{name}" for name in params}
        for mod_name, module in modules.items():
            for state_key in module.extra_state():
                expected.add(f"state:{mod_name}:{state_key}")
        unexpected = sorted(set(state) - expected)
        if unexpected:
            raise KeyError(
                f"unexpected state keys (not in this model): {unexpected[:5]}"
            )
        missing = sorted(expected - set(state))
        if missing:
            raise KeyError(
                f"state dict is missing {len(missing)} keys (e.g. {missing[:5]})"
            )
        extra: dict[str, dict[str, np.ndarray]] = {}
        for key, value in state.items():
            kind, _, rest = key.partition(":")
            if kind == "param":
                param = params[rest]
                value = np.asarray(value)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: state has {value.shape}, "
                        f"parameter has {param.data.shape}"
                    )
                param.data[...] = value
            else:
                mod_name, _, state_key = rest.partition(":")
                extra.setdefault(mod_name, {})[state_key] = value
        for mod_name, mod_state in extra.items():
            modules[mod_name].load_extra_state(mod_state)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def set_fault_hook(self, kind: str, hook: HookFn | None) -> None:
        if kind not in HOOK_KINDS:
            raise ValueError(f"unknown hook kind {kind!r}; expected one of {HOOK_KINDS}")
        self._fault_hooks[kind] = hook

    def clear_fault_hooks(self) -> None:
        for kind in HOOK_KINDS:
            self._fault_hooks[kind] = None

    def apply_fault_hook(self, kind: str, tensor: np.ndarray, **site_info) -> np.ndarray:
        """Apply a hook (if any) to ``tensor``; called by layer internals."""
        hook = self._fault_hooks[kind]
        if hook is None:
            return tensor
        info = dict(site_info)
        info.setdefault("module", self)
        info.setdefault("kind", kind)
        return hook(tensor, info)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


def input_layer(model: Module) -> Module:
    """The layer that takes ``model``'s input and whose input gradient
    ``model.backward`` returns: layer 0 of a plain :class:`Sequential`,
    recursively, else ``model`` itself."""
    while type(model) is Sequential and model.layers:
        model = model.layers[0]
    return model


@contextmanager
def input_grad_dropped(model: Module, replicas: list[Module]):
    """Around a ``model.backward`` whose result the caller discards: the
    model's input layer computes no input gradient, unless one of
    ``replicas`` — the roots whose fault hooks apply to this backward
    (``model`` itself, or the lane replicas a lane program runs for) —
    has an ``input_grad`` hook armed on its input layer, which must then
    see the tensor it always saw."""
    if any(input_layer(replica)._fault_hooks["input_grad"] is not None
           for replica in replicas):
        yield
        return
    layer = input_layer(model)
    layer.wants_input_grad = False
    try:
        yield
    finally:
        del layer.wants_input_grad


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse."""

    lane_native = True

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: list[Module] = []
        for idx, layer in enumerate(layers):
            self.add_module(str(idx), layer)
            self.layers.append(layer)

    def append(self, layer: Module) -> "Sequential":
        self.add_module(str(len(self.layers)), layer)
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Apply layers ``start..`` to ``x``, the input of layer
        ``start`` (a caller that kept it from an earlier pass skips the
        layers before; forward only — backward needs every cache)."""
        for layer in self.layers[start:] if start else self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)
