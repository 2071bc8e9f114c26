"""A fault model returns its record, and :func:`write_record` is the one
writer (DESIGN.md decision 22).

For every Table 1 row and ``PinnedMagnitude``, on 1-D to 4-D tensors:

* the record written into a copy is the tensor ``apply`` returned when it
  wrote the fault itself.  ``tests/data/fault_record_cases.json`` holds
  the sha256 of that earlier output for fixed cases (channel counts that
  are not a multiple of 16, and zeros, which a zero write leaves
  byte-equal); it was written by the earlier ``apply`` and is not
  regenerated.  On generated cases the reference is the earlier body,
  kept here: copy the tensor into the canonical layout, write every
  recorded position in order, lay the copy out again;
* the rows written alone are the rows a full byte compare of that
  output finds changed, holding the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.dataflow import from_canonical, to_canonical
from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.software_models import TABLE1, PinnedMagnitude, write_record

CASES = json.loads(
    (Path(__file__).parent / "data" / "fault_record_cases.json").read_text())

PINNED = {"pinned": PinnedMagnitude(1e6, elements=9),
          "pinned_coherent": PinnedMagnitude(7.0, elements=30, coherent=True)}

MODELS = [*TABLE1, *PINNED]


def case_tensor(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Wide-range values with a quarter of them zero."""
    rng = np.random.default_rng([seed, *shape])
    tensor = (rng.standard_normal(shape)
              * np.exp2(rng.integers(-8, 20, size=shape))).astype(np.float32)
    tensor[rng.random(shape) < 0.25] = 0
    return tensor


def case_ff(name: str, seed: int) -> FFDescriptor | None:
    """No FF on even seeds, else one with feedback (n > 1 cycles)."""
    if seed % 2 == 0 or name in PINNED:
        return None
    if name in ("datapath", "local_control"):
        return FFDescriptor(name, has_feedback=True)
    group = int(name.removeprefix("group")) if name.startswith("group") else 1
    return FFDescriptor("global_control", group=group, has_feedback=True)


def record_for(name: str, tensor: np.ndarray, seed: int):
    model = PINNED.get(name) or TABLE1[name]
    return model.apply(tensor, np.random.default_rng(seed), case_ff(name, seed),
                       fan_in=4096)


def digest(array: np.ndarray) -> str:
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def reference_write(tensor: np.ndarray, record) -> np.ndarray:
    """How ``apply`` wrote its fault before it returned only its record."""
    canonical = to_canonical(np.array(tensor, dtype=np.float32, order="C"))
    canonical.reshape(-1)[record.positions] = record.faulty_values
    return from_canonical(canonical, tensor.shape)


def changed_rows(faulty: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    changed = faulty.view(np.uint32) != tensor.view(np.uint32)
    return np.flatnonzero(changed.reshape(len(tensor), -1).any(axis=1))


def check(name: str, tensor: np.ndarray, seed: int) -> np.ndarray:
    """Both writes of ``name``'s record on ``tensor`` against a full
    byte compare; returns the dense one."""
    before = tensor.tobytes()
    record = record_for(name, tensor, seed)
    assert tensor.tobytes() == before  # a model only reads
    rows, faulty = write_record(tensor, record)
    assert faulty.flags["C_CONTIGUOUS"] and faulty.dtype == np.float32
    assert faulty.tobytes() == reference_write(tensor, record).tobytes()
    assert np.array_equal(rows, changed_rows(faulty, tensor))
    only, values = write_record(tensor, record, rows_only=True)
    assert np.array_equal(only, rows)
    assert values.shape == (len(rows), *tensor.shape[1:])
    assert values.tobytes() == faulty[rows].tobytes()
    return faulty


@pytest.mark.parametrize("key", sorted(CASES))
def test_written_record_is_the_earlier_output(key):
    name, shape, seed = key.split()
    shape = tuple(int(d) for d in shape.split("x"))
    faulty = check(name, case_tensor(shape, int(seed)), int(seed))
    assert digest(faulty) == CASES[key]


def test_cases_cover_every_model_and_rank():
    names = {key.split()[0] for key in CASES}
    ranks = {key.split()[1].count("x") + 1 for key in CASES}
    assert names == set(MODELS) and ranks == {1, 2, 3, 4}


@st.composite
def shapes(draw) -> tuple[int, ...]:
    rank = draw(st.integers(1, 4))
    dims = [draw(st.integers(1, 6)) for _ in range(rank)]
    # The channel axis of the canonical view: rarely a multiple of 16.
    channel = {1: 0, 2: 1, 3: 2, 4: 1}[rank]
    dims[channel] = draw(st.integers(1, 40))
    return tuple(dims)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(MODELS), shape=shapes(),
       seed=st.integers(0, 2**32 - 1))
def test_dense_and_row_writes_agree(name, shape, seed):
    check(name, case_tensor(shape, seed), seed)


def test_a_non_contiguous_tensor_is_read_as_laid_out():
    """A conv weight gradient is ``dw.T.reshape(...)``."""
    base = case_tensor((72, 16), 3)
    tensor = base.T.reshape(16, 8, 3, 3)
    assert not tensor.flags["C_CONTIGUOUS"]
    for name in MODELS:
        check(name, tensor, 5)
