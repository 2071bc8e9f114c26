"""Per-layer lane == solo byte equality (the contract in repro.nn.module).

For every ``nn`` class that declares itself lane-native, one
``(L, ...)`` call on a program replica bound by
:class:`~repro.backend.batched.LaneProgram` must equal the L plain calls
on the lane replicas byte for byte: forward output, input gradient,
every parameter gradient, and the extra state (BatchNorm moving
statistics) handed back to each lane.  A fault hook armed on one lane
replica must change that lane's bytes only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.backend.batched import LaneProgram
from repro.distributed import SyncDataParallelTrainer
from repro.nn.conv import conv_output_size
from repro.nn.module import HOOK_KINDS, Module
from repro.state import StateArena
from repro.workloads import build_workload, workload_names

LANES = st.sampled_from([1, 2, 8])


# ----------------------------------------------------------------------
# One case per lane-native class: draw -> (factory(rng) -> module, plain
# input shape).  ``test_every_declared_class_has_a_case`` keeps the table
# in step with the declarations.
# ----------------------------------------------------------------------
@st.composite
def conv_case(draw):
    k = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h = draw(st.integers(max(1, k - 2 * padding), 6))
    w = draw(st.integers(max(1, k - 2 * padding), 6))
    bias = draw(st.booleans())
    return (lambda rng: nn.Conv2D(cin, cout, k, rng, stride=stride,
                                  padding=padding, use_bias=bias),
            (draw(st.integers(1, 3)), cin, h, w))


@st.composite
def batchnorm_case(draw):
    c = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 4)), c)
    if draw(st.booleans()):
        shape += (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    momentum = draw(st.sampled_from([0.9, 0.99]))
    return (lambda rng: nn.BatchNorm(c, momentum=momentum), shape)


@st.composite
def activation_case(draw, cls):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    return (lambda rng: cls(), shape)


@st.composite
def dense_case(draw):
    fin, fout = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    bias = draw(st.booleans())
    return (lambda rng: nn.Dense(fin, fout, rng, use_bias=bias),
            (draw(st.integers(1, 4)), fin))


@st.composite
def nchw_case(draw, cls):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(4))
    return (lambda rng: cls(), shape)


@st.composite
def residual_case(draw):
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    use_bn = draw(st.booleans())
    shape = (draw(st.integers(1, 3)), cin,
             draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    return (lambda rng: nn.ResidualBlock(cin, cout, rng, stride=stride,
                                         use_bn=use_bn), shape)


@st.composite
def sequential_case(draw):
    cin, mid, classes = (draw(st.integers(1, 3)) for _ in range(3))
    h, w = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    stride = draw(st.integers(1, 2))
    pooled = draw(st.booleans())  # GAP head, or Flatten over the full map
    features = mid if pooled else (
        mid * conv_output_size(h, 3, stride, 1) * conv_output_size(w, 3, stride, 1))

    def factory(rng):
        return nn.Sequential(
            nn.Conv2D(cin, mid, 3, rng, stride=stride, use_bias=False),
            nn.BatchNorm(mid),
            nn.LeakyReLU(),
            nn.GlobalAvgPool2D() if pooled else nn.Flatten(),
            nn.Dense(features, classes, rng),
        )

    return factory, (draw(st.integers(1, 3)), cin, h, w)


CASES = {
    nn.Conv2D: conv_case(),
    nn.BatchNorm: batchnorm_case(),
    nn.ReLU: activation_case(nn.ReLU),
    nn.LeakyReLU: activation_case(nn.LeakyReLU),
    nn.Dense: dense_case(),
    nn.GlobalAvgPool2D: nchw_case(nn.GlobalAvgPool2D),
    nn.Flatten: nchw_case(nn.Flatten),
    nn.ResidualBlock: residual_case(),
    nn.Sequential: sequential_case(),
}


def _declared_classes() -> set:
    return {cls for cls in vars(nn).values()
            if isinstance(cls, type) and issubclass(cls, Module)
            and vars(cls).get("lane_native", False)}


def test_every_declared_class_has_a_case():
    assert _declared_classes() == set(CASES)


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
class _Lanes:
    """L lane replicas (distinct parameters and moving statistics per
    lane) and one program replica bound to them."""

    def __init__(self, factory, lanes: int, seed: int):
        rng = np.random.default_rng(seed)
        self.solos = [factory(np.random.default_rng(seed)) for _ in range(lanes)]
        self.program = factory(np.random.default_rng(seed))
        has_params = any(True for _ in self.program.parameters())
        self.arenas = [StateArena(m) for m in self.solos] if has_params else None
        for solo in self.solos:
            for param in solo.parameters():
                param.data[...] = rng.normal(size=param.shape)
            for module in solo.modules():
                state = module.extra_state()
                if state:
                    module.load_extra_state({
                        "moving_mean": rng.normal(size=state["moving_mean"].shape),
                        "moving_var": rng.uniform(0.5, 2.0, state["moving_var"].shape),
                    })
        self.lane_modules = [dict(m.named_modules()) for m in self.solos]
        self.lane_program = LaneProgram(
            self.program, self.arenas[0].index if has_params else {})

    def param_rows(self) -> np.ndarray:
        if self.arenas is None:
            return np.empty((len(self.solos), 0), dtype=np.float32)
        return np.stack([arena.param for arena in self.arenas])

    def run_solo(self, xs, gs, training=True):
        """The reference: each lane replica's own plain call."""
        outs, dxs = [], []
        for solo, x, g in zip(self.solos, xs, gs):
            solo.train() if training else solo.eval()
            solo.zero_grad()
            out = solo.forward(x)
            outs.append(out.copy())
            dxs.append(solo.backward(g(out)).copy() if training else None)
        return outs, dxs

    def run_lanes(self, xs, gs, training=True):
        grads = self.lane_program.bind(self.lane_modules, self.param_rows(),
                                       training=training)
        out = self.program.forward(np.stack(xs))
        dx = None
        if training:
            dx = self.program.backward(np.stack([g(o) for g, o in zip(gs, out)]))
            self.lane_program.hand_back_extra_state()
        return out, dx, grads


def _inputs(shape, lanes: int, seed: int):
    rng = np.random.default_rng(seed + 1)
    xs = [rng.normal(size=shape).astype(np.float32) for _ in range(lanes)]
    # Upstream gradients are drawn per lane once the output shape is known.
    cache: dict = {}

    def grad_for(lane):
        def grad(out):
            if lane not in cache:
                cache[lane] = rng.normal(size=out.shape).astype(np.float32)
            return cache[lane]
        return grad

    return xs, [grad_for(lane) for lane in range(lanes)]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _extra_state(module) -> list[bytes]:
    return [value.tobytes() for m in module.modules()
            for value in m.extra_state().values()]


def _check_lane_equals_solo(case, lanes: int, seed: int):
    factory, shape = case
    xs, gs = _inputs(shape, lanes, seed)
    # Lanes first: the solo calls then start from the same moving
    # statistics only if a reference copy runs them, so build two sets.
    reference = _Lanes(factory, lanes, seed)
    subject = _Lanes(factory, lanes, seed)
    outs, dxs = reference.run_solo(xs, gs)
    out, dx, grads = subject.run_lanes(xs, gs)
    for lane in range(lanes):
        assert _same_bytes(out[lane], outs[lane]), f"forward, lane {lane}"
        assert _same_bytes(dx[lane], dxs[lane]), f"input grad, lane {lane}"
        if reference.arenas is not None:
            assert _same_bytes(grads[lane], reference.arenas[lane].grad), \
                f"parameter grads, lane {lane}"
        assert _extra_state(subject.solos[lane]) == _extra_state(reference.solos[lane]), \
            f"extra state, lane {lane}"


@pytest.mark.parametrize("cls", sorted(CASES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), lanes=LANES, seed=st.integers(0, 2**16))
def test_lane_call_equals_solo_calls(cls, data, lanes, seed):
    _check_lane_equals_solo(data.draw(CASES[cls]), lanes, seed)


@settings(max_examples=25, deadline=None)
@given(case=batchnorm_case(), lanes=LANES, seed=st.integers(0, 2**16))
def test_batchnorm_eval_uses_each_lanes_moving_statistics(case, lanes, seed):
    factory, shape = case
    xs, gs = _inputs(shape, lanes, seed)
    reference = _Lanes(factory, lanes, seed)
    subject = _Lanes(factory, lanes, seed)
    outs, _ = reference.run_solo(xs, gs, training=False)
    out, _, _ = subject.run_lanes(xs, gs, training=False)
    for lane in range(lanes):
        assert _same_bytes(out[lane], outs[lane])


# ----------------------------------------------------------------------
# Masked injection: a hook armed on one lane replica
# ----------------------------------------------------------------------
def _hooked_kinds(cls) -> tuple:
    """Hook kinds the class's own kernels apply (containers and the
    shape-only layers have no op sites of their own)."""
    if cls in (nn.Conv2D, nn.BatchNorm, nn.Dense):
        return HOOK_KINDS
    if cls in (nn.ReLU, nn.LeakyReLU):
        return ("forward", "input_grad")
    return ()


@pytest.mark.parametrize("cls,kind", [
    (cls, kind) for cls in sorted(CASES, key=lambda c: c.__name__)
    for kind in _hooked_kinds(cls)], ids=lambda v: getattr(v, "__name__", v))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), lanes=st.sampled_from([2, 8]), seed=st.integers(0, 2**16))
def test_hook_on_one_lane_changes_only_that_lane(cls, kind, data, lanes, seed):
    factory, shape = data.draw(CASES[cls])
    target = data.draw(st.integers(0, lanes - 1))
    xs, gs = _inputs(shape, lanes, seed)
    seen = []

    def hook(tensor, info):
        seen.append(info)
        return (tensor + np.float32(1.0)).astype(np.float32)

    clean = _Lanes(factory, lanes, seed)
    reference = _Lanes(factory, lanes, seed)
    subject = _Lanes(factory, lanes, seed)
    reference.solos[target].set_fault_hook(kind, hook)
    subject.solos[target].set_fault_hook(kind, hook)

    clean_out, clean_dx, clean_grads = clean.run_lanes(xs, gs)
    outs, dxs = reference.run_solo(xs, gs)
    out, dx, grads = subject.run_lanes(xs, gs)

    solo_info, lane_info = seen
    assert lane_info["module"] is subject.solos[target]
    assert lane_info["kind"] == kind
    assert ({k: v for k, v in lane_info.items() if k != "module"}
            == {k: v for k, v in solo_info.items() if k != "module"})
    for lane in range(lanes):
        assert _same_bytes(out[lane], outs[lane])
        assert _same_bytes(dx[lane], dxs[lane])
        if reference.arenas is not None:
            assert _same_bytes(grads[lane], reference.arenas[lane].grad)
        if lane != target:
            assert _same_bytes(out[lane], clean_out[lane])
            assert _same_bytes(dx[lane], clean_dx[lane])
            assert _same_bytes(grads[lane], clean_grads[lane])
    changed = [not _same_bytes(a[target], b[target])
               for a, b in ((out, clean_out), (dx, clean_dx), (grads, clean_grads))]
    assert any(changed), "the armed hook left its own lane untouched"


# ----------------------------------------------------------------------
# Which models take the lane path
# ----------------------------------------------------------------------
#: Registry workloads whose every module type is lane-native.  ``yolo``
#: joined when the kernels merged (LeakyReLU needed no mirror op).
VECTORIZED_WORKLOADS = {"resnet", "resnet_nobn", "resnet_sgd",
                        "resnet_largedecay", "yolo"}


def test_undeclared_layers_are_not_lane_native():
    rng = np.random.default_rng(0)

    class TweakedReLU(nn.ReLU):  # inherits the kernels, not the declaration
        pass

    for layer in (nn.MaxPool2D(), nn.AvgPool2D(), nn.Dropout(0.1), nn.LayerNorm(4),
                  nn.Sigmoid(), nn.NFBlock(2, rng), nn.DenseLayer(2, 2, rng),
                  nn.LSTM(2, 2, rng), TweakedReLU()):
        model = nn.Sequential(nn.ReLU(), layer)
        assert not model.is_lane_native(), type(layer).__name__


@pytest.mark.parametrize("name", workload_names())
def test_registry_vectorized_set(name):
    """A silent drop to the per-lane fallback would keep every
    bit-identity test green and only lose the speed, so the set of
    workloads ``LaneGroup`` steps through the program replica is pinned
    (all of them are covered by the batched golden traces)."""
    spec = build_workload(name, size="tiny")
    with SyncDataParallelTrainer(spec, num_devices=2, backend="batched") as trainer:
        assert trainer.backend.group.vectorized == (name in VECTORIZED_WORKLOADS)
