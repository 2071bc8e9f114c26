"""Shared fixtures for the test suite.

Tests run at the "tiny" workload scale; anything that trains does so for
a handful of iterations.  Trainer-producing fixtures are factories so
each test gets fresh, mutable state.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.faults import Campaign
from repro.distributed import SyncDataParallelTrainer
from repro.nn import Module
from repro.workloads import build_workload


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_resnet_spec():
    return build_workload("resnet", size="tiny", seed=0)


@pytest.fixture
def make_trainer():
    """Factory building a fresh trainer for a tiny workload."""

    def factory(workload: str = "resnet", num_devices: int = 2, seed: int = 0,
                test_every: int = 0, **kwargs) -> SyncDataParallelTrainer:
        spec = build_workload(workload, size="tiny", seed=seed)
        return SyncDataParallelTrainer(
            spec, num_devices=num_devices, seed=seed, test_every=test_every, **kwargs
        )

    return factory


@pytest.fixture
def forced_solo():
    """Context manager forcing the solo ``device_step`` loop — the
    reference the lane step is pinned against — on every trainer built
    inside it: no model then reports itself lane-native, which is the
    only thing a backend asks when it is bound.  There is no ``src/``
    switch for this on purpose.  ``force(False)`` changes nothing, so a
    parametrised test can wrap both of its sides."""

    @contextmanager
    def force(active: bool = True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                patch.setattr(Module, "is_lane_native", lambda self: False)
            yield

    return force


@pytest.fixture
def full_horizon():
    """Context manager sending every campaign experiment run inside it
    down the full-horizon path — restore the warm-up rung, train every
    iteration — which golden-run reuse (DESIGN.md decision 9) is pinned
    against.  It patches the one predicate that allows reuse; as with
    ``forced_solo`` there is no ``src/`` switch for this on purpose.
    Preparation is the same either way, so one prepared campaign serves
    both sides.  ``force(False)`` changes nothing."""

    @contextmanager
    def force(active: bool = True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                patch.setattr(Campaign, "_golden_reuse", lambda self: False)
            yield

    return force


@pytest.fixture
def fsyncs(monkeypatch) -> list[int]:
    """The file descriptor of every ``fsync`` taken while the test runs
    (the record log's durability point, ``repro.jsonl``)."""
    calls: list[int] = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
    return calls


def once(point: str, iteration: int, action) -> SimpleNamespace:
    """A one-shot trainer hook: at hook point ``point``
    (``before_iteration``, ``after_backward``, ``after_step``, ...) of
    ``iteration`` it calls ``action(trainer)``, the first time only.  A
    transient fault does not recur when a recovery rewind re-executes
    the iteration, so a synthetic one must not either."""
    fired = []

    def hook(trainer, at, *_):
        if at == iteration and not fired:
            fired.append(at)
            action(trainer)

    return SimpleNamespace(**{point: hook})


def directional_gradcheck(model, x, loss_fn, y, rng, eps: float = 1e-2) -> float:
    """Relative error between analytic and numeric directional derivative.

    More robust than per-element checks in float32: the directional
    derivative has O(1) magnitude, so float noise stays small relative to
    the signal.
    """
    model.train()
    loss_fn.forward(model.forward(x), y)
    model.zero_grad()
    model.backward(loss_fn.backward())
    params = list(model.parameters())
    dirs = [rng.normal(size=p.data.shape).astype(np.float32) for p in params]
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, dirs))
    orig = [p.data.copy() for p in params]
    for p, d, o in zip(params, dirs, orig):
        p.data = o + eps * d
    l1 = loss_fn.forward(model.forward(x), y)
    for p, d, o in zip(params, dirs, orig):
        p.data = o - eps * d
    l2 = loss_fn.forward(model.forward(x), y)
    for p, o in zip(params, orig):
        p.data = o
    numeric = (l1 - l2) / (2 * eps)
    return abs(numeric - analytic) / max(1e-8, abs(numeric) + abs(analytic))
