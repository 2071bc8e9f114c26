"""Tests for optimizers and their history terms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.module import Module, Parameter
from repro.optim import SGD, Adam, AdamW, RMSProp
from repro.optim.base import max_abs
from repro.state import StateArena


def make_param(values) -> Parameter:
    return Parameter(np.asarray(values, dtype=np.float32))


def bound(factory, values):
    """An optimizer over one parameter holding ``values``, bound to an
    arena over it (its state lives nowhere else); returns ``(param, opt)``."""
    holder = Module()
    param = holder.add_param("w", np.asarray(values, dtype=np.float32))
    opt = factory([param])
    opt.bind_arena(StateArena(holder))
    return param, opt


class TestSGD:
    def test_plain_update(self):
        p, opt = bound(lambda ps: SGD(ps, lr=0.1), [1.0])
        p.grad[:] = 0.5
        opt.step()
        assert p.data[0] == pytest.approx(0.95)

    def test_momentum_accumulates(self):
        p, opt = bound(lambda ps: SGD(ps, lr=1.0, momentum=0.5), [0.0])
        p.grad[:] = 1.0
        opt.step()  # v=1, w=-1
        p.grad[:] = 1.0
        opt.step()  # v=1.5, w=-2.5
        assert p.data[0] == pytest.approx(-2.5)
        assert opt.first_moment_arrays()[0][0] == pytest.approx(1.5)

    def test_history_flags(self):
        p = make_param([0.0])
        assert not SGD([p], momentum=0.0).normalizes_gradients()
        assert SGD([p], momentum=0.0).history_magnitude() == 0.0
        assert SGD([p], momentum=0.0).first_moment_arrays() == []
        _, with_momentum = bound(lambda ps: SGD(ps, momentum=0.9), [0.0])
        assert len(with_momentum.first_moment_arrays()) == 1

    def test_unbound_step_raises(self):
        """An optimizer's state is its arena segments: there is nothing
        to step before it is bound."""
        with pytest.raises(RuntimeError, match="bind_arena"):
            SGD([make_param([0.0])]).step()

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_formula(self, g1, g2, g3):
        """Three steps of Adam on a scalar match Eq. 1 computed by hand."""
        p, opt = bound(
            lambda ps: Adam(ps, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8), [1.0])
        m = v = 0.0
        w = 1.0
        for t, g in enumerate([g1, g2, g3], start=1):
            p.grad[:] = np.float32(g)
            opt.step()
            gf = float(np.float32(g))
            m = 0.9 * m + 0.1 * gf
            v = 0.999 * v + 0.001 * gf * gf
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            w = w - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert p.data[0] == pytest.approx(w, rel=1e-3, abs=1e-5)
            opt.zero_grad()

    def test_update_bounded_by_lr(self):
        """Adam normalizes: even a huge single gradient moves weights by
        ~lr, which is why weight-update faults are needed to create large
        weights under Adam (Sec. 4.2.2)."""
        p, opt = bound(lambda ps: Adam(ps, lr=0.01), [0.0])
        p.grad[:] = 1e20
        opt.step()
        assert abs(p.data[0]) < 0.1

    def test_huge_gradient_inflates_history(self):
        """The SlowDegrade precondition: one faulty gradient inflates m
        and v, which then persist across iterations."""
        p, opt = bound(lambda ps: Adam(ps, lr=0.01), [0.0])
        p.grad[:] = 1e15
        opt.step()
        assert opt.history_magnitude() > 1e14
        # After the fault, v decays at beta2 per iteration — slowly.
        opt.zero_grad()
        opt.step()
        assert float(opt.second_moment_arrays()[0][0]) == pytest.approx(
            0.999 * (1e15**2) * 0.001, rel=1e-2)

    def test_history_magnitude_inf(self):
        p, opt = bound(Adam, [0.0])
        p.grad[:] = 1e30
        opt.step()  # v overflows float32
        assert opt.history_magnitude() == float("inf")

    def test_moment_accessors(self):
        _, opt = bound(Adam, [0.0])
        assert len(opt.first_moment_arrays()) == 1
        assert len(opt.second_moment_arrays()) == 1
        assert opt.normalizes_gradients()


class TestAdamW:
    def test_weight_decay_applied(self):
        p, opt = bound(lambda ps: AdamW(ps, lr=0.1, weight_decay=0.5), [10.0])
        p.grad[:] = 0.0
        opt.step()
        # No gradient: update is pure decoupled decay lr*wd*w = 0.5.
        assert p.data[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0, rel=1e-4)


class TestRMSProp:
    def test_normalizes(self):
        p, opt = bound(lambda ps: RMSProp(ps, lr=0.1), [0.0])
        p.grad[:] = 100.0
        opt.step()
        # Update ~ lr * g / sqrt((1-rho) g^2) = lr / sqrt(0.1).
        assert abs(p.data[0]) == pytest.approx(0.1 / np.sqrt(0.1), rel=1e-2)
        assert opt.normalizes_gradients()
        assert len(opt.second_moment_arrays()) == 1


class TestStateDict:
    """An optimizer's whole state is its iteration count and its slot
    segments: putting those (and the weights) back replays a step
    exactly."""

    @pytest.mark.parametrize("factory", [
        lambda p: Adam(p, lr=0.01),
        lambda p: SGD(p, lr=0.1, momentum=0.9),
        lambda p: RMSProp(p, lr=0.01),
    ])
    def test_round_trip(self, factory, rng):
        p, opt = bound(factory, rng.normal(size=(4, 3)))
        for _ in range(3):
            p.grad[:] = rng.normal(size=(4, 3)).astype(np.float32)
            opt.step()
        weights = opt.arena.param.copy()
        snapshot = {name: buf.copy() for name, buf in opt.slots.items()}
        assert set(snapshot) == set(opt.SLOTS)
        p.grad[:] = 1.0
        opt.step()
        stepped = opt.arena.param.copy()
        np.copyto(opt.arena.param, weights)
        for name, buf in snapshot.items():
            np.copyto(opt.slots[name], buf)
        opt.iteration = 3
        opt.step()
        assert np.array_equal(opt.arena.param, stepped)


class TestUpdateHook:
    def test_hook_modifies_update(self):
        p, opt = bound(lambda ps: SGD(ps, lr=1.0), [0.0])
        opt.set_update_hook(lambda u, info: u * 0.0)
        p.grad[:] = 5.0
        opt.step()
        assert p.data[0] == 0.0

    def test_hook_info(self):
        p, opt = bound(lambda ps: SGD(ps, lr=1.0), [0.0])
        seen = {}
        opt.set_update_hook(lambda u, info: seen.update(info) or u)
        p.grad[:] = 1.0
        opt.step()
        assert seen["index"] == 0
        assert seen["param"] is p


class TestMaxAbs:
    def test_empty(self):
        assert max_abs([]) == 0.0
        assert max_abs([np.empty(0, dtype=np.float32)]) == 0.0

    def test_inf_and_nan_map_to_inf(self):
        assert max_abs([np.array([1.0, np.inf])]) == float("inf")
        assert max_abs([np.array([np.nan])]) == float("inf")

    def test_normal(self):
        assert max_abs([np.array([-3.0, 2.0]), np.array([1.0])]) == 3.0
