"""Byte pins for the Table 1 software fault models.

``tests/data/fault_model_pins.json`` holds one sha256 per (model, config
preset, shape).  Each digest covers, for every seed and FF variant, the
faulty tensor's bytes, every :class:`FaultRecord` field and the
generator's state after ``apply`` (so its next draw); the faulty
tensor is the record :func:`write_record` writes.  The pins were
written before the models became one table; any change to a model's
output, record or draw order fails here.

``pinned`` digests cover the output bytes and the generator state only:
its record positions are canonical-layout indices by design.

Regenerate (only when a model's behaviour is meant to change)::

    PYTHONPATH=src python tests/test_fault_model_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator.config import CONFIG_PRESETS
from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.software_models import TABLE1, PinnedMagnitude, write_record

PINS = Path(__file__).parent / "data" / "fault_model_pins.json"

MODELS = list(TABLE1)

#: 4-D with channels a multiple of 16 and not, 2-D, 3-D, 1-D and one
#: element.
SHAPES = [(2, 24, 4, 4), (1, 20, 3, 3), (3, 5, 2, 7), (6, 5), (16, 32),
          (2, 9, 21), (37,), (1,)]

SEEDS = range(8)

PINNED = [PinnedMagnitude(1e6), PinnedMagnitude(1e6, coherent=True),
          PinnedMagnitude(3.0, elements=1), PinnedMagnitude(100.0, elements=10**6)]


def model_named(name: str, config):
    """The Table 1 row ``name`` retargeted to ``config``."""
    return replace(TABLE1[name], config=config)


def ff_variants(name: str) -> list[FFDescriptor | None]:
    if name == "datapath":
        return [None] + [FFDescriptor("datapath", bit=bit, has_feedback=fb)
                         for bit in (30, 3, None) for fb in (False, True)]
    if name == "local_control":
        return [None] + [FFDescriptor("local_control", has_feedback=fb)
                         for fb in (False, True)]
    group = int(name.removeprefix("group")) if name.startswith("group") else 1
    return [None] + [FFDescriptor("global_control", group=group, has_feedback=fb)
                     for fb in (False, True)]


def fan_ins(name: str) -> list[int | None]:
    """Only the attenuation rows read ``fan_in``."""
    return [None, 4096, 10] if name in ("group7", "group8") else [None]


def input_tensor(shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(sum(shape) * 7919 + len(shape))
    scale = np.exp2(rng.integers(-8, 20, size=shape))
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _array(h, a: np.ndarray) -> None:
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def _state(h, rng: np.random.Generator) -> None:
    h.update(repr(rng.bit_generator.state).encode())


def digest_model(model, shape) -> str:
    h = hashlib.sha256()
    tensor = input_tensor(shape)
    for ff in ff_variants(model.name):
        for fan_in in fan_ins(model.name):
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                record = model.apply(tensor, rng, ff, fan_in=fan_in)
                _, faulty = write_record(tensor, record)
                _array(h, faulty)
                h.update(f"{record.model}|{record.start_cycle}|{record.n_cycles}"
                         f"|{record.ff is ff}".encode())
                for values in (record.positions, record.original_values,
                               record.faulty_values):
                    _array(h, values)
                _state(h, rng)
    return h.hexdigest()


def digest_pinned(shape) -> str:
    h = hashlib.sha256()
    tensor = input_tensor(shape)
    for pinned in PINNED:
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            _, faulty = write_record(tensor, pinned.apply(tensor, rng))
            _array(h, faulty)
            _state(h, rng)
    return h.hexdigest()


def key(name: str, preset: str, shape) -> str:
    return f"{name} {preset} {'x'.join(map(str, shape))}"


def compute_pins() -> dict[str, str]:
    pins = {}
    for name in MODELS:
        for preset, config in CONFIG_PRESETS.items():
            model = model_named(name, config)
            for shape in SHAPES:
                pins[key(name, preset, shape)] = digest_model(model, shape)
    for shape in SHAPES:
        pins[key("pinned", "-", shape)] = digest_pinned(shape)
    return pins


def write() -> None:
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    return json.loads(PINS.read_text())


def test_pins_cover_every_case(pins):
    expected = {key(name, preset, shape) for name in MODELS
                for preset in CONFIG_PRESETS for shape in SHAPES}
    expected |= {key("pinned", "-", shape) for shape in SHAPES}
    assert set(pins) == expected


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
@pytest.mark.parametrize("name", MODELS)
def test_model_bytes_and_draws_match_pins(pins, name, preset):
    model = model_named(name, CONFIG_PRESETS[preset])
    for shape in SHAPES:
        assert digest_model(model, shape) == pins[key(name, preset, shape)], shape


def test_pinned_bytes_and_draws_match_pins(pins):
    for shape in SHAPES:
        assert digest_pinned(shape) == pins[key("pinned", "-", shape)], shape


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fault_model_pins.py --write")
    write()
