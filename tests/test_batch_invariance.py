"""Batch-invariant eval kernels (DESIGN.md decision 16).

In eval mode an image's output bytes must not depend on which images
share its forward: ``forward(x[rows]) == forward(x)[rows]`` byte for
byte for any rows — a subset, a permutation, duplicates, one image
alone.  An inference unit judges the rows a fault touched against the
golden batch's top-1, and the serving shadow re-executes only those
rows, both on the strength of this.  A lane-stacked eval forward must
still equal each lane's plain forward.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import build_workload, workload_names
from tests.test_lane_native import CASES, LANES, _inputs, _Lanes, _same_bytes

BATCH = 16


@functools.cache
def _eval_model(name: str):
    """``(model, inputs, whole-batch output)`` per workload, built once."""
    spec = build_workload(name, size="tiny")
    model = spec.build_model(0).eval()
    x = spec.test_data.inputs[:BATCH]
    return model, x, model.forward(x)


@pytest.mark.parametrize("name", workload_names())
@settings(max_examples=20, deadline=None)
@given(rows=st.lists(st.integers(0, BATCH - 1), min_size=1, max_size=BATCH + 4))
@example(rows=[BATCH - 1])
def test_rows_forwarded_alone_equal_the_batch_rows(name, rows):
    model, x, full = _eval_model(name)
    assert _same_bytes(model.forward(x[rows]), full[rows])


@pytest.mark.parametrize("cls", sorted(CASES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), lanes=LANES, seed=st.integers(0, 2**16))
def test_lane_eval_equals_solo_eval(cls, data, lanes, seed):
    factory, shape = data.draw(CASES[cls])
    xs, gs = _inputs(shape, lanes, seed)
    outs, _ = _Lanes(factory, lanes, seed).run_solo(xs, gs, training=False)
    out, _, _ = _Lanes(factory, lanes, seed).run_lanes(xs, gs, training=False)
    for lane in range(lanes):
        assert _same_bytes(out[lane], outs[lane]), f"lane {lane}"
