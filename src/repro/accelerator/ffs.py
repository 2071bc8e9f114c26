"""Flip-flop inventory of the modeled accelerator.

The hardware fault model samples a random FF uniformly from the design
(Sec. 3.3 step 1).  This module encodes the FF *population structure* the
paper reports so that uniform-FF sampling reproduces the paper's category
mix:

* Table 1 gives the fraction of all FFs behind each global-control fault
  group (0.09% - 2.36% each, ~6.2% combined);
* Sec. 4.3.1 says global groups 1 and 3 plus local control FFs together
  are 9.8% of all FFs — fixing the local-control population at ~9.1%;
* Sec. 4.3.1 also says the upper two exponent bits are 5.5% of all FFs;
  with 2 of 32 bits of each FP32 datapath register being upper-exponent
  bits, this is consistent with the remaining ~84.7% of FFs being
  datapath registers (2/32 * 84.7% = 5.3% ~ 5.5%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Fractions of ALL FFs per global-control fault-model group (Table 1).
GLOBAL_GROUP_FRACTIONS: dict[int, float] = {
    1: 0.0024,   # config / output-valid turns invalid->valid
    2: 0.0025,   # output-valid turns valid->invalid (outputs zeroed)
    3: 0.0048,   # same as group 1 but one MAC unit
    4: 0.0236,   # output address FFs
    5: 0.0131,   # input-1 address FFs
    6: 0.0096,   # input-2 address FFs
    7: 0.0009,   # input-1 valid invalid->valid (inputs zeroed)
    8: 0.0022,   # input-2 valid invalid->valid
    9: 0.0016,   # input-1 valid valid->invalid (stale/random input reuse)
    10: 0.0012,  # input-2 valid valid->invalid
}

#: Local control FFs (control exactly one datapath register): chosen so
#: local + groups 1 and 3 = 9.8% of all FFs (Sec. 4.3.1).
LOCAL_CONTROL_FRACTION = 0.098 - GLOBAL_GROUP_FRACTIONS[1] - GLOBAL_GROUP_FRACTIONS[3]

#: Datapath registers hold everything else.
DATAPATH_FRACTION = 1.0 - sum(GLOBAL_GROUP_FRACTIONS.values()) - LOCAL_CONTROL_FRACTION

#: Bits per datapath register (FP32 accumulators dominate the datapath).
DATAPATH_REGISTER_BITS = 32

#: The Sec. 4.3.1 FF classes, as :attr:`FFDescriptor.ff_class` names them.
FF_CLASSES = ("critical_control", "upper_exponent", "other")


@dataclass(frozen=True)
class FFDescriptor:
    """One sampled flip-flop: where a bit flip lands.

    ``category`` is ``"datapath"``, ``"local_control"``, or
    ``"global_control"``.  For global control FFs, ``group`` is the
    Table 1 fault-model group (1-10).  For datapath FFs, ``bit`` is the
    flipped bit position within the FP32 register and ``has_feedback``
    marks FFs inside accumulation loops (their faults can persist for
    ``n > 1`` cycles).
    """

    category: str
    group: int | None = None
    bit: int | None = None
    has_feedback: bool = False

    def is_upper_exponent(self, count: int = 2) -> bool:
        """True for the Sec. 4.3.1 "upper two exponent bits" class."""
        if self.category != "datapath" or self.bit is None:
            return False
        return self.bit in range(31 - count, 31)

    @property
    def ff_class(self) -> str:
        """The Sec. 4.3.1 class: "critical_control" (global groups 1 and
        3 plus local control FFs, 9.8 % of FFs), "upper_exponent" (the
        top two exponent bits of a datapath register) or "other"."""
        if self.category == "local_control" or (
                self.category == "global_control" and self.group in (1, 3)):
            return "critical_control"
        if self.is_upper_exponent():
            return "upper_exponent"
        return "other"


class FFInventory:
    """Samples FFs with the population weights of the modeled design."""

    def __init__(self, feedback_fraction: float = 0.3):
        """``feedback_fraction``: fraction of datapath/control FFs inside
        feedback loops (accumulators, address counters)."""
        if not 0.0 <= feedback_fraction <= 1.0:
            raise ValueError(f"feedback_fraction out of [0,1]: {feedback_fraction}")
        self.feedback_fraction = float(feedback_fraction)
        self._categories = (
            [("datapath", None)]
            + [("local_control", None)]
            + [("global_control", g) for g in GLOBAL_GROUP_FRACTIONS]
        )
        self._weights = np.array(
            [DATAPATH_FRACTION, LOCAL_CONTROL_FRACTION]
            + [GLOBAL_GROUP_FRACTIONS[g] for g in GLOBAL_GROUP_FRACTIONS],
            dtype=np.float64,
        )
        self._weights /= self._weights.sum()
        # What ``rng.choice(n, p=weights)`` computes on every call: one
        # uniform draw looked up in the normalised CDF, so the index and
        # the generator's next state are the ones it gives.
        self._cdf = self._weights.cumsum()
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> FFDescriptor:
        """Draw one FF uniformly over the design's FF population."""
        idx = int(self._cdf.searchsorted(rng.random(), side="right"))
        category, group = self._categories[idx]
        has_feedback = bool(rng.random() < self.feedback_fraction)
        if category == "datapath":
            bit = int(rng.integers(0, DATAPATH_REGISTER_BITS))
            return FFDescriptor("datapath", bit=bit, has_feedback=has_feedback)
        if category == "local_control":
            return FFDescriptor("local_control", has_feedback=has_feedback)
        return FFDescriptor("global_control", group=group, has_feedback=has_feedback)

    def category_fractions(self) -> dict[str, float]:
        """Aggregate population fractions (for reporting/tests)."""
        return {
            "datapath": DATAPATH_FRACTION,
            "local_control": LOCAL_CONTROL_FRACTION,
            "global_control": sum(GLOBAL_GROUP_FRACTIONS.values()),
        }
