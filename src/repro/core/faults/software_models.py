"""Software fault models (Table 1 of the paper).

Each model maps a hardware bit flip in one FF category onto its
software-visible effect: *which* elements of the op-site tensor become
faulty (geometry from the accelerator dataflow) and *what* their faulty
values are.  The ten global-control groups follow Table 1 verbatim;
datapath and local-control models follow the FIdelity formulation the
paper reuses for those categories.

All models operate on the *canonical accelerator view* of the tensor
(see :mod:`repro.accelerator.dataflow`) and restore the original layout,
so they apply uniformly to conv activations, dense outputs, sequence
tensors, and weight-gradient tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.accelerator.dataflow import DataflowMap, from_canonical, to_canonical
from repro.accelerator.ffs import FFDescriptor
from repro.tensor.bits import flip_float32_bit, random_float32_pattern


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


class SoftwareFaultModel:
    """Base class: perturb a tensor per one Table 1 row."""

    #: Human-readable model name (Table 1 group or FF category).
    name = "base"

    def __init__(self, config: AcceleratorConfig = DEFAULT_CONFIG):
        self.config = config

    # ------------------------------------------------------------------
    # Helpers shared by all models
    # ------------------------------------------------------------------
    def _duration(self, rng: np.random.Generator, has_feedback: bool) -> int:
        """Table 1's ``n``: 1, or uniform in [1, max loop] with feedback."""
        if not has_feedback:
            return 1
        return int(rng.integers(1, self.config.max_feedback_loop + 1))

    def _begin(self, tensor: np.ndarray, rng: np.random.Generator,
               has_feedback: bool) -> tuple[np.ndarray, DataflowMap, int, int]:
        # order="C" is load-bearing: np.array's default order="K" preserves
        # the layout of non-contiguous inputs (e.g. a conv weight gradient
        # produced by dw.T.reshape(...)), and a non-contiguous canonical
        # array would make reshape(-1) in _set_positions a silent copy.
        canonical = to_canonical(np.array(tensor, dtype=np.float32, copy=True, order="C"))
        flow = DataflowMap(tensor.shape, self.config)
        cycle = flow.random_cycle(rng)
        n = self._duration(rng, has_feedback)
        return canonical, flow, cycle, n

    def _finish(self, canonical: np.ndarray, original_shape: tuple[int, ...],
                record: FaultRecord) -> tuple[np.ndarray, FaultRecord]:
        return from_canonical(canonical, original_shape), record

    def apply(self, tensor: np.ndarray, rng: np.random.Generator,
              ff: FFDescriptor | None = None) -> tuple[np.ndarray, FaultRecord]:
        raise NotImplementedError


def _set_positions(canonical: np.ndarray, flat_idx: np.ndarray,
                   values: np.ndarray, record: FaultRecord) -> None:
    """Write faulty values into the canonical tensor, filling the record."""
    if not canonical.flags["C_CONTIGUOUS"]:
        raise ValueError("canonical tensor must be C-contiguous for in-place writes")
    flat = canonical.reshape(-1)
    record.positions = flat_idx
    record.original_values = flat[flat_idx].copy()
    record.faulty_values = np.asarray(values, dtype=np.float32)
    flat[flat_idx] = record.faulty_values


class DatapathBitFlip(SoftwareFaultModel):
    """Bit flip in a datapath register: one faulty output element whose
    value is the original with one bit of its FP32 encoding flipped.

    Sec. 4.3.1: flips in the upper two exponent bits are the datapath
    faults most likely to create the huge magnitudes behind unexpected
    outcomes.
    """

    name = "datapath"

    def apply(self, tensor, rng, ff=None):
        bit = ff.bit if (ff is not None and ff.bit is not None) else int(rng.integers(0, 32))
        has_feedback = bool(ff.has_feedback) if ff is not None else False
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        lane = int(rng.integers(0, self.config.mac_lanes))
        coords = flow.lane_element_for_cycles(cycle, 1, lane)
        record = FaultRecord(self.name, ff, cycle, n)
        if coords[0].size:
            flat_idx = flow.flat_indices(coords)
            flipped = flip_float32_bit(canonical.reshape(-1)[flat_idx], bit)
            _set_positions(canonical, flat_idx, flipped, record)
        return self._finish(canonical, tensor.shape, record)


class LocalControlFault(SoftwareFaultModel):
    """Bit flip in a local control FF (controls one datapath register):
    the controlled register captures an arbitrary value, so one output
    element per cycle takes a random value spanning the dynamic range,
    for ``n`` consecutive cycles."""

    name = "local_control"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else False
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        lane = int(rng.integers(0, self.config.mac_lanes))
        coords = flow.lane_element_for_cycles(cycle, n, lane)
        record = FaultRecord(self.name, ff, cycle, n)
        if coords[0].size:
            flat_idx = flow.flat_indices(coords)
            values = random_float32_pattern(rng, flat_idx.size)
            _set_positions(canonical, flat_idx, values, record)
        return self._finish(canonical, tensor.shape, record)


class Group1RandomOutputs(SoftwareFaultModel):
    """Table 1 group 1: a config FF or output-valid signal flips
    invalid->valid; all Layer_Outputs of each affected cycle take random
    values spanning the entire dynamic range, for ``n`` cycles."""

    name = "group1"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        record = FaultRecord(self.name, ff, cycle, n)
        values = random_float32_pattern(rng, flat_idx.size)
        _set_positions(canonical, flat_idx, values, record)
        return self._finish(canonical, tensor.shape, record)


class Group2ZeroOutputs(SoftwareFaultModel):
    """Table 1 group 2: output-valid flips valid->invalid; all
    Layer_Outputs of each affected cycle are set to 0, for ``n`` cycles."""

    name = "group2"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        record = FaultRecord(self.name, ff, cycle, n)
        _set_positions(canonical, flat_idx, np.zeros(flat_idx.size, np.float32), record)
        return self._finish(canonical, tensor.shape, record)


class Group3SingleLaneRandom(SoftwareFaultModel):
    """Table 1 group 3: like group 1 but only one MAC unit is affected —
    one randomly chosen Layer_Output element per cycle takes a random
    value, for ``n`` consecutive cycles."""

    name = "group3"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        lane = int(rng.integers(0, self.config.mac_lanes))
        coords = flow.lane_element_for_cycles(cycle, n, lane)
        record = FaultRecord(self.name, ff, cycle, n)
        if coords[0].size:
            flat_idx = flow.flat_indices(coords)
            values = random_float32_pattern(rng, flat_idx.size)
            _set_positions(canonical, flat_idx, values, record)
        return self._finish(canonical, tensor.shape, record)


class Group4WrongOutputAddress(SoftwareFaultModel):
    """Table 1 group 4: output-address FFs corrupted; all Layer_Outputs of
    the affected cycles are written to incorrect, randomly chosen memory
    locations while maintaining their relative positions.  The intended
    locations are never written (they retain the buffer's prior contents,
    modeled as zeros), and the wrong locations are overwritten."""

    name = "group4"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        size = canonical.size
        # A 1-element tensor has nowhere else to write: fully masked.
        offset = int(rng.integers(1, size)) if size > 1 else 0
        wrong_idx = (flat_idx + offset) % size
        flat = canonical.reshape(-1)
        moved_values = flat[flat_idx].copy()
        record = FaultRecord(self.name, ff, cycle, n)
        # Record both the zeroed holes and the overwritten destinations.
        all_idx = np.concatenate([flat_idx, wrong_idx])
        record.positions = all_idx
        record.original_values = flat[all_idx].copy()
        flat[flat_idx] = 0.0
        flat[wrong_idx] = moved_values
        record.faulty_values = flat[all_idx].copy()
        return self._finish(canonical, tensor.shape, record)


class _InputFaultBase(SoftwareFaultModel):
    """Shared machinery for input-side faults (groups 5-10).

    A fault on Layer_Input_1 / Layer_Input_2 corrupts the *outputs
    computed from those inputs* — the same cycle geometry as output
    faults.  Input role 1 vs 2 (feature map vs weights, or the two
    gradient operands in the backward pass) changes which FFs are hit but
    not the output geometry, so the models differ only in population
    weight (see :mod:`repro.accelerator.ffs`).
    """

    #: Cycles affected when the faulty read is from DRAM ("n consecutive
    #: cycles") vs on-chip buffers ("one cycle") — Table 1 rows 5-10.
    dram_read_probability = 0.5

    def _input_duration(self, rng: np.random.Generator, has_feedback: bool) -> int:
        if rng.random() < self.dram_read_probability:
            # DRAM read: the faulty transfer spans n consecutive cycles.
            return int(rng.integers(1, self.config.max_feedback_loop + 1))
        return 1  # On-chip buffer read: a single cycle.


class Group5WrongInput1Address(_InputFaultBase):
    """Table 1 groups 5/6: input-address FFs corrupted; the affected
    outputs are computed from a contiguous *wrong* region of the input.
    Modeled by replacing the affected outputs with the outputs of a
    shifted block (values from elsewhere, relative positions kept)."""

    name = "group5"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, _ = self._begin(tensor, rng, has_feedback)
        n = self._input_duration(rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        size = canonical.size
        # A 1-element tensor has no wrong region to read: fully masked.
        offset = int(rng.integers(1, size)) if size > 1 else 0
        source_idx = (flat_idx + offset) % size
        flat = canonical.reshape(-1)
        record = FaultRecord(self.name, ff, cycle, n)
        _set_positions(canonical, flat_idx, flat[source_idx].copy(), record)
        return self._finish(canonical, tensor.shape, record)


class Group6WrongInput2Address(Group5WrongInput1Address):
    name = "group6"


class Group7ZeroInput1(_InputFaultBase):
    """Table 1 groups 7/8: an input-valid signal flips invalid->valid and
    the affected reads return zeros; the outputs computed in those cycles
    lose the corresponding partial sums.  Modeled as attenuation by the
    fraction of partial sums lost (``64 * n / fan_in``), clipped to full
    loss when the layer's fan-in is unknown or small."""

    name = "group7"

    def apply(self, tensor, rng, ff=None, fan_in: int | None = None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, _ = self._begin(tensor, rng, has_feedback)
        n = self._input_duration(rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        lost = self.config.input_channels_per_cycle * n
        if fan_in is not None and fan_in > 0:
            factor = max(0.0, 1.0 - lost / float(fan_in))
        else:
            factor = 0.0
        flat = canonical.reshape(-1)
        record = FaultRecord(self.name, ff, cycle, n)
        _set_positions(canonical, flat_idx, (flat[flat_idx] * factor).astype(np.float32),
                       record)
        return self._finish(canonical, tensor.shape, record)


class Group8ZeroInput2(Group7ZeroInput1):
    name = "group8"


class Group9StaleInput1(_InputFaultBase):
    """Table 1 groups 9/10: an input-valid signal flips valid->invalid and
    the datapath reuses stale register contents — the affected outputs
    are computed from a random prior set of input values.  Modeled by
    gathering the affected outputs' values from random positions of the
    tensor (wrong but in-distribution values)."""

    name = "group9"

    def apply(self, tensor, rng, ff=None):
        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, _ = self._begin(tensor, rng, has_feedback)
        n = self._input_duration(rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        flat = canonical.reshape(-1)
        source_idx = rng.integers(0, canonical.size, size=flat_idx.size)
        record = FaultRecord(self.name, ff, cycle, n)
        _set_positions(canonical, flat_idx, flat[source_idx].copy(), record)
        return self._finish(canonical, tensor.shape, record)


class Group10StaleInput2(Group9StaleInput1):
    name = "group10"


class PrecisionConfigFault(SoftwareFaultModel):
    """Data-precision misconfiguration (Sec. 4.2.1, immediate INFs/NaNs
    source 2): a fault in a configuration FF makes the MAC array perform
    int16 operations instead of bfloat16, so "the results may overflow
    when they are converted to FP32 to undergo element-wise operations".

    Modeled on the output tensor: the elements produced while the config
    FF is corrupted are re-quantized through a saturating int16 datapath
    with a fixed-point scale, which distorts small values to integers and
    drives pre-scaled large values to the +-32767 rails; the subsequent
    FP32 rescale then amplifies them by the inverse scale.
    """

    name = "precision_config"

    #: Fixed-point scale a bfloat16->int16 misinterpretation implies
    #: (the exponent bits read as magnitude): 2^8.
    SCALE = 256.0

    def apply(self, tensor, rng, ff=None):
        from repro.tensor.dtypes import to_int16_saturating

        has_feedback = bool(ff.has_feedback) if ff is not None else True
        canonical, flow, cycle, n = self._begin(tensor, rng, has_feedback)
        coords = flow.elements_for_cycles(cycle, n)
        flat_idx = flow.flat_indices(coords)
        flat = canonical.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            requantized = to_int16_saturating(flat[flat_idx] * self.SCALE) * self.SCALE
        record = FaultRecord(self.name, ff, cycle, n)
        _set_positions(canonical, flat_idx, requantized.astype(np.float32), record)
        return self._finish(canonical, tensor.shape, record)


@dataclass(frozen=True)
class PinnedMagnitude:
    """A directed fault's values, pinned inside a chosen magnitude band
    (the Table 4 bands the latent outcomes live in, below the overflow a
    full-range random value usually reaches): ``elements`` positions of
    the tensor, drawn row-major without replacement, become
    ±``magnitude``.  ``coherent`` writes one sign, ``+magnitude`` — the
    structure a rank-1 backward-pass fault imposes on upstream weight
    gradients.  When ``elements`` covers the whole tensor every element
    is written and no positions are drawn.

    A :class:`~repro.core.faults.hardware.HardwareFault` carrying one
    (``fault.pinned``) is applied by this model in place of the one its
    FF selects; it draws from the same per-fault generator."""

    magnitude: float
    elements: int = 16
    coherent: bool = False

    name = "pinned"

    def apply(self, tensor: np.ndarray, rng: np.random.Generator,
              ff: FFDescriptor | None = None) -> tuple[np.ndarray, FaultRecord]:
        out = np.array(tensor, dtype=np.float32, copy=True, order="C")
        size = out.size
        count = min(self.elements, size)
        flat_idx = (np.arange(size) if count == size
                    else rng.choice(size, size=count, replace=False))
        signs = (np.ones(count) if self.coherent
                 else rng.choice([-1.0, 1.0], size=count))
        record = FaultRecord(self.name, ff, 0, 1)
        _set_positions(out, flat_idx, signs * self.magnitude, record)
        return out, record


#: Global-control group number -> model class (Table 1).
GLOBAL_GROUP_MODELS: dict[int, type[SoftwareFaultModel]] = {
    1: Group1RandomOutputs,
    2: Group2ZeroOutputs,
    3: Group3SingleLaneRandom,
    4: Group4WrongOutputAddress,
    5: Group5WrongInput1Address,
    6: Group6WrongInput2Address,
    7: Group7ZeroInput1,
    8: Group8ZeroInput2,
    9: Group9StaleInput1,
    10: Group10StaleInput2,
}


def model_for_ff(ff: FFDescriptor, config: AcceleratorConfig = DEFAULT_CONFIG) -> SoftwareFaultModel:
    """Instantiate the software fault model matching a sampled FF."""
    if ff.category == "datapath":
        return DatapathBitFlip(config)
    if ff.category == "local_control":
        return LocalControlFault(config)
    if ff.category == "global_control":
        if ff.group not in GLOBAL_GROUP_MODELS:
            raise ValueError(f"unknown global control group: {ff.group}")
        return GLOBAL_GROUP_MODELS[ff.group](config)
    raise ValueError(f"unknown FF category: {ff.category}")


def all_model_names() -> list[str]:
    """Every fault-model name in the framework (for reports/tests)."""
    return ["datapath", "local_control"] + [f"group{g}" for g in sorted(GLOBAL_GROUP_MODELS)]
