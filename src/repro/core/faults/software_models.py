"""Software fault models (Table 1 of the paper).

Each model maps a hardware bit flip in one FF category onto its
software-visible effect: *which* elements of the op-site tensor become
faulty (geometry from the accelerator dataflow) and *what* their faulty
values are.  The ten global-control groups follow Table 1 verbatim;
datapath and local-control models follow the FIdelity formulation the
paper reuses for those categories.

Table 1 is one table here (DESIGN.md decision 22): :data:`TABLE1` holds
one :class:`SoftwareFaultModel` row per model — its lane geometry, its
duration rule, its value rule, its default ``has_feedback`` and its
behaviour text — and one :meth:`SoftwareFaultModel.apply` runs every row.

All models read the *canonical accelerator view* of the tensor (see
:mod:`repro.accelerator.dataflow`), so they apply uniformly to conv
activations, dense outputs, sequence tensors, and weight-gradient
tensors.  A model only reads the tensor and returns its
:class:`FaultRecord`; :func:`write_record` is the one writer, into a
copy of the whole tensor or into the rows the record changes alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.accelerator.dataflow import (
    DataflowMap,
    canonical_view_shape,
    from_canonical,
)
from repro.accelerator.ffs import FFDescriptor
from repro.tensor.bits import flip_float32_bit, random_float32_pattern
from repro.tensor.dtypes import to_int16_saturating


@dataclass
class FaultRecord:
    """What a fault model actually did to a tensor (for analysis)."""

    model: str
    ff: FFDescriptor | None
    start_cycle: int
    n_cycles: int
    #: Flat indices (canonical layout) of the perturbed elements.
    positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    original_values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float32))
    faulty_values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float32))

    @property
    def num_faulty(self) -> int:
        return int(self.positions.size)

    def max_abs_faulty(self) -> float:
        if self.faulty_values.size == 0:
            return 0.0
        with np.errstate(invalid="ignore"):
            m = np.abs(self.faulty_values).max()
        return float(m) if np.isfinite(m) else float("inf")


def _layout_index(shape: tuple[int, ...], positions: np.ndarray) -> np.ndarray:
    """Canonical flat indices (the element order of
    :func:`~repro.accelerator.dataflow.to_canonical`) as
    flat indices of a row-major tensor of ``shape``."""
    if len(shape) == 3:
        _n, t, d = shape
        sample, rest = np.divmod(positions, d * t)
        channel, step = np.divmod(rest, t)
        return (sample * t + step) * d + channel
    if len(shape) == 2:
        n, f = shape
        feature, row = np.divmod(positions, n)
        return row * f + feature
    return positions


#: One schedule per (shape, config): a campaign applies many faults to the
#: same few site tensors.
_dataflow = lru_cache(maxsize=256)(DataflowMap)


class _CanonicalReader:
    """A tensor read through its canonical flat view without laying it
    out again: ``reader[positions]`` gathers canonical flat indices."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=np.float32)
        self.shape = tensor.shape
        self.size = tensor.size
        self._flat = tensor.reshape(-1)

    def __getitem__(self, positions) -> np.ndarray:
        return self._flat[_layout_index(self.shape, positions)]


def write_record(tensor: np.ndarray, record: FaultRecord, *,
                 rows_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``record`` written over ``tensor``, which is only read.  Returns
    the axis-0 rows whose bytes it changes, ascending, and the written
    values: the whole tensor in a C-ordered float32 copy, or with
    ``rows_only`` just those rows.  Where the record names a position
    twice the last write wins, and a write that keeps a value's bytes
    changes no row."""
    tensor = np.asarray(tensor, dtype=np.float32)
    row_size = tensor.size // len(tensor)
    positions = _layout_index(tensor.shape, record.positions)
    before = tensor.reshape(-1)[positions].view(np.uint32)
    row = positions // row_size
    rows = np.unique(row)
    if rows_only:
        # Only the rows the record writes, each position moved into them.
        positions = positions - (row - np.searchsorted(rows, row)) * row_size
        written = np.ascontiguousarray(tensor[rows])
    else:
        written = np.array(tensor, order="C")
    flat = written.reshape(-1)
    flat[positions] = record.faulty_values
    # Read back: of two writes to one position, the last is what counts.
    changed = flat[positions].view(np.uint32) != before
    if changed.all():
        return rows, written
    kept = np.unique(row[changed])
    if rows_only:
        written = written[np.searchsorted(rows, kept)]
    return kept, written


# ----------------------------------------------------------------------
# Value rules: (canonical flat tensor, the elements the geometry hit,
# generator, draws) -> (positions written, their faulty values).  Each
# reads only the draws it names.
# ----------------------------------------------------------------------
def _bit_flip(flat, idx, rng, *, bit, **_):
    """The original value with one bit of its FP32 encoding flipped
    (Sec. 4.3.1: upper exponent bits make the huge magnitudes)."""
    return idx, flip_float32_bit(flat[idx], bit)


def _random_pattern(flat, idx, rng, **_):
    """Random values spanning the entire FP32 dynamic range."""
    return idx, random_float32_pattern(rng, idx.size)


def _zero(flat, idx, rng, **_):
    return idx, np.zeros(idx.size, np.float32)


def _displaced_block(flat, idx, rng, **_):
    """Group 4: the block is written at a random offset, relative
    positions kept; its intended slots keep the buffer's prior contents
    (zeros) unless the displaced block itself lands on them."""
    # A 1-element tensor has nowhere else to write: fully masked.
    offset = int(rng.integers(1, flat.size)) if flat.size > 1 else 0
    wrong = (idx + offset) % flat.size
    holes = np.where(np.isin(idx, wrong), flat[(idx - offset) % flat.size], np.float32(0))
    return np.concatenate([idx, wrong]), np.concatenate([holes, flat[idx]])


def _shifted_source(flat, idx, rng, **_):
    """Groups 5/6: the outputs of a contiguous wrong input region —
    values from elsewhere in the tensor, relative positions kept."""
    # A 1-element tensor has no wrong region to read: fully masked.
    offset = int(rng.integers(1, flat.size)) if flat.size > 1 else 0
    return idx, flat[(idx + offset) % flat.size]


def _attenuation(flat, idx, rng, *, n, fan_in, config, **_):
    """Groups 7/8: the outputs lose the partial sums of the zeroed reads,
    ``64 * n / fan_in`` of them; all of them when the fan-in is unknown."""
    lost = config.input_channels_per_cycle * n
    factor = max(0.0, 1.0 - lost / float(fan_in)) if fan_in is not None and fan_in > 0 else 0.0
    return idx, flat[idx] * factor


def _stale_gather(flat, idx, rng, **_):
    """Groups 9/10: outputs computed from stale operands — values
    gathered from random positions (wrong but in-distribution)."""
    return idx, flat[rng.integers(0, flat.size, size=idx.size)]


#: Fixed-point scale a bfloat16->int16 misinterpretation implies (the
#: exponent bits read as magnitude): 2^8.
INT16_SCALE = 256.0


def _int16_requantisation(flat, idx, rng, **_):
    """Sec. 4.2.1: int16 MAC operations instead of bfloat16 — small values
    snap to the fixed-point grid, pre-scaled large ones to the +-32767
    rails, and the FP32 rescale amplifies them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return idx, to_int16_saturating(flat[idx] * INT16_SCALE) * INT16_SCALE


#: Lane geometry: every MAC lane of a cycle (16 consecutive channels), or
#: one MAC unit.
ALL, ONE = "all", "one"
#: Duration: the geometry spans one cycle, the n-cycle feedback loop, or
#: an input read's duration.
FEEDBACK, INPUT = "feedback", "input"
#: Table 1 rows 5-10: a faulty read is from DRAM ("n consecutive
#: cycles") rather than an on-chip buffer ("one cycle") this often.
DRAM_READ_PROBABILITY = 0.5


@dataclass(frozen=True)
class SoftwareFaultModel:
    """One Table 1 row: a lane geometry, a duration rule, a value rule,
    the ``has_feedback`` a fault without an FF takes, and the row's
    behaviour text."""

    name: str
    lanes: str
    cycles: str
    value: Callable[..., tuple[np.ndarray, np.ndarray]]
    feedback: bool
    behaviour: str
    config: AcceleratorConfig = DEFAULT_CONFIG

    def apply(self, tensor: np.ndarray, rng: np.random.Generator,
              ff: FFDescriptor | None = None,
              fan_in: int | None = None) -> FaultRecord:
        """This row's fault on ``tensor``, as its record; ``tensor`` is
        only read (:func:`write_record` writes the record).  ``fan_in``
        is the op site's fan-in; only attenuation reads it."""
        config = self.config
        has_feedback = self.feedback if ff is None else bool(ff.has_feedback)
        bit = None
        if self.value is _bit_flip:
            # Drawn before the cycle so every recorded datapath fault keeps its draws.
            bit = ff.bit if ff is not None and ff.bit is not None else int(rng.integers(0, 32))
        flow = _dataflow(tensor.shape, config)
        cycle = flow.random_cycle(rng)
        n = int(rng.integers(1, config.max_feedback_loop + 1)) if has_feedback else 1
        if self.cycles == INPUT:
            # The feedback n above is discarded; it is drawn so recorded faults keep their draws.
            n = (int(rng.integers(1, config.max_feedback_loop + 1))
                 if rng.random() < DRAM_READ_PROBABILITY else 1)
        span = 1 if self.cycles == ONE else n
        if self.lanes == ONE:
            lane = int(rng.integers(0, config.mac_lanes))
            coords = flow.lane_element_for_cycles(cycle, span, lane)
        else:
            coords = flow.elements_for_cycles(cycle, span)
        if not coords[0].size:  # A lane past the tensor's channels is masked.
            return FaultRecord(self.name, ff, cycle, n)
        flat = _CanonicalReader(tensor)
        positions, values = self.value(flat, flow.flat_indices(coords), rng,
                                       n=n, fan_in=fan_in, bit=bit, config=config)
        return FaultRecord(self.name, ff, cycle, n, positions, flat[positions],
                           np.asarray(values, dtype=np.float32))


_SINGLE_REGISTER = "FIdelity-style single-register fault"

#: Table 1: model name -> row, at the default accelerator config.
TABLE1: dict[str, SoftwareFaultModel] = {row.name: row for row in (
    SoftwareFaultModel("datapath", ONE, ONE, _bit_flip, False, _SINGLE_REGISTER),
    SoftwareFaultModel("local_control", ONE, FEEDBACK, _random_pattern, False,
                       _SINGLE_REGISTER),
    SoftwareFaultModel("group1", ALL, FEEDBACK, _random_pattern, True,
                       "all lane outputs <- random values spanning dynamic range, n cycles"),
    SoftwareFaultModel("group2", ALL, FEEDBACK, _zero, True,
                       "all lane outputs <- 0, n cycles"),
    SoftwareFaultModel("group3", ONE, FEEDBACK, _random_pattern, True,
                       "one MAC lane's output <- random value per cycle, n cycles"),
    SoftwareFaultModel("group4", ALL, FEEDBACK, _displaced_block, True,
                       "outputs written to wrong addresses (relative positions kept)"),
    SoftwareFaultModel("group5", ALL, INPUT, _shifted_source, True,
                       "input-1 reads from wrong addresses -> wrong-but-plausible outputs"),
    SoftwareFaultModel("group6", ALL, INPUT, _shifted_source, True,
                       "input-2 reads from wrong addresses -> wrong-but-plausible outputs"),
    SoftwareFaultModel("group7", ALL, INPUT, _attenuation, True,
                       "input-1 reads return zeros -> outputs lose partial sums"),
    SoftwareFaultModel("group8", ALL, INPUT, _attenuation, True,
                       "input-2 reads return zeros -> outputs lose partial sums"),
    SoftwareFaultModel("group9", ALL, INPUT, _stale_gather, True,
                       "input-1 valid drops -> stale operand reuse"),
    SoftwareFaultModel("group10", ALL, INPUT, _stale_gather, True,
                       "input-2 valid drops -> stale operand reuse"),
    SoftwareFaultModel("precision_config", ALL, FEEDBACK, _int16_requantisation, True,
                       "int16 MAC operations instead of bfloat16 -> requantized outputs"),
)}


@dataclass(frozen=True)
class PinnedMagnitude:
    """A directed fault's values, pinned inside a chosen magnitude band
    (the Table 4 bands the latent outcomes live in, below the overflow a
    full-range random value usually reaches): ``elements`` positions of
    the tensor, drawn row-major without replacement, become
    ±``magnitude``.  ``coherent`` writes one sign, ``+magnitude`` — the
    structure a rank-1 backward-pass fault imposes on upstream weight
    gradients.  When ``elements`` covers the whole tensor every element
    is written and no positions are drawn.  It has no dataflow geometry,
    so it is not a Table 1 row; its record names the drawn elements in
    the canonical layout, as every row's does.

    A :class:`~repro.core.faults.hardware.HardwareFault` carrying one
    (``fault.pinned``) is applied by this model in place of the one its
    FF selects; it draws from the same per-fault generator."""

    magnitude: float
    elements: int = 16
    coherent: bool = False

    name = "pinned"

    def apply(self, tensor: np.ndarray, rng: np.random.Generator,
              ff: FFDescriptor | None = None,
              fan_in: int | None = None) -> FaultRecord:
        tensor = np.asarray(tensor, dtype=np.float32)
        size = tensor.size
        count = min(self.elements, size)
        flat_idx = (np.arange(size) if count == size
                    else rng.choice(size, size=count, replace=False))
        signs = (np.ones(count) if self.coherent
                 else rng.choice([-1.0, 1.0], size=count))
        record = FaultRecord(self.name, ff, 0, 1)
        record.original_values = tensor.reshape(-1)[flat_idx]
        record.faulty_values = np.asarray(signs * self.magnitude, dtype=np.float32)
        # Each element's canonical flat index, laid out like the tensor.
        canonical_index = from_canonical(
            np.arange(size).reshape(canonical_view_shape(tensor.shape)), tensor.shape)
        record.positions = canonical_index.reshape(-1)[flat_idx]
        return record


def model_for_ff(ff: FFDescriptor, config: AcceleratorConfig = DEFAULT_CONFIG) -> SoftwareFaultModel:
    """The Table 1 row a sampled FF selects, retargeted to ``config``.
    No FF selects ``precision_config``: it is reached through
    :data:`TABLE1` only."""
    if ff.category in ("datapath", "local_control"):
        row = TABLE1[ff.category]
    elif ff.category == "global_control":
        row = TABLE1.get(f"group{ff.group}")
        if row is None:
            raise ValueError(f"unknown global control group: {ff.group}")
    else:
        raise ValueError(f"unknown FF category: {ff.category}")
    return row if config == DEFAULT_CONFIG else replace(row, config=config)


def all_model_names() -> list[str]:
    """Every fault-model name a sampled FF selects (for reports/tests)."""
    return [name for name in TABLE1 if name != "precision_config"]
