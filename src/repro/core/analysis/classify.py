"""Training-outcome taxonomy and classifier (Table 3 of the paper).

Outcomes are classified from convergence trends exactly as the paper
characterizes them: "(1) convergence trends (i.e., training/test accuracy
values throughout the training process), and (2) occurrences of visible
anomalies" (Sec. 4.1).

Two top-level categories:

* **Benign** (82.3%-90.3% in the paper): the fault did not significantly
  affect final accuracy — often *slightly improving* it (noise acting as
  regularization), otherwise degrading it only slightly (<= ~6%).
* **Unexpected** (9.7%-17.7%): INFs/NaNs at three latencies, plus the four
  latent outcomes first identified by the paper: SlowDegrade,
  SharpSlowDegrade, SharpDegrade, and LowTestAccuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.nn.losses import top1
from repro.training.metrics import ConvergenceRecord


class Outcome(str, Enum):
    """Training outcomes (Table 3 taxonomy plus the benign split)."""

    MASKED_IMPROVED = "masked_improved"
    MASKED_SLIGHT_DEGRADE = "masked_slight_degrade"
    IMMEDIATE_INF_NAN = "immediate_inf_nan"
    SHORT_TERM_INF_NAN = "short_term_inf_nan"
    LATENT_INF_NAN = "latent_inf_nan"
    SLOW_DEGRADE = "slow_degrade"
    SHARP_SLOW_DEGRADE = "sharp_slow_degrade"
    SHARP_DEGRADE = "sharp_degrade"
    LOW_TEST_ACCURACY = "low_test_accuracy"

    @property
    def is_unexpected(self) -> bool:
        return self not in (Outcome.MASKED_IMPROVED, Outcome.MASKED_SLIGHT_DEGRADE)

    @property
    def is_latent(self) -> bool:
        """Latent outcomes: long error-detection latency (Table 3)."""
        return self in (
            Outcome.SLOW_DEGRADE,
            Outcome.SHARP_SLOW_DEGRADE,
            Outcome.SHARP_DEGRADE,
            Outcome.LOW_TEST_ACCURACY,
        )


@dataclass(frozen=True)
class ClassifierThresholds:
    """Tunable decision thresholds for the outcome classifier."""

    #: Final train/test degradation below this is "slight" (paper: mostly
    #: within 2%, up to 6%).
    slight_degrade: float = 0.06
    #: A drop of at least this much within ``sharp_window`` iterations of
    #: the injection counts as a *sharp* drop.  Measured on the RAW curve
    #: (a sharp drop is a single-iteration event at the fault iteration —
    #: the faulty device's shard predictions collapse — and smoothing
    #: would average it away).
    sharp_drop: float = 0.15
    #: Iterations after injection within which a sharp drop must appear.
    sharp_window: int = 3
    #: Smoothing window (iterations) for accuracy curves.
    smooth: int = 5
    #: Extra degradation after the initial sharp drop that distinguishes
    #: SharpSlowDegrade (drop + continued slow degradation) from
    #: SharpDegrade (drop, then flat).
    continued_degrade: float = 0.10
    #: INFs/NaNs appearing within this many iterations of the fault are
    #: "immediate" (Table 3: current iteration, or next for backward
    #: faults); within ``short_term_latency`` they are "short-term".
    immediate_latency: int = 1
    short_term_latency: int = 3


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """``values`` smoothed over ``window`` points, same length (the
    outcome classifier's and the Fig. 5 phase split's curve)."""
    if values.size == 0 or window <= 1:
        return np.asarray(values, dtype=np.float64)
    w = min(window, values.size)
    # Edge-padded moving average: zero padding (plain mode="same") would
    # drag boundary values toward 0 and fabricate degradations.
    padded = np.pad(np.asarray(values, dtype=np.float64), (w // 2, w - 1 - w // 2),
                    mode="edge")
    return np.convolve(padded, np.ones(w) / w, mode="valid")


@dataclass
class OutcomeReport:
    """Classification result with the evidence behind it."""

    outcome: Outcome
    injection_iteration: int
    final_train_delta: float
    final_test_delta: float
    sharp_drop_at_injection: bool
    details: dict

    @property
    def is_unexpected(self) -> bool:
        return self.outcome.is_unexpected


def classify_outcome(
    faulty: ConvergenceRecord,
    reference: ConvergenceRecord,
    injection_iteration: int,
    thresholds: ClassifierThresholds | None = None,
) -> OutcomeReport:
    """Classify a faulty run's outcome against its fault-free reference.

    The reference must come from the same workload/seed so the curves are
    directly comparable (the campaign guarantees this).
    """
    th = thresholds or ClassifierThresholds()
    t = int(injection_iteration)

    # ------------------------------------------------------------------
    # INFs/NaNs: classify by manifestation latency (Table 3).
    # ------------------------------------------------------------------
    if faulty.nonfinite_at is not None:
        latency = faulty.nonfinite_at - t
        if latency <= th.immediate_latency:
            outcome = Outcome.IMMEDIATE_INF_NAN
        elif latency <= th.short_term_latency:
            outcome = Outcome.SHORT_TERM_INF_NAN
        else:
            outcome = Outcome.LATENT_INF_NAN
        return OutcomeReport(
            outcome, t, 0.0, 0.0, False,
            {"nonfinite_at": faulty.nonfinite_at, "latency": latency},
        )

    ref_train = reference.final_train_accuracy()
    ref_test = reference.final_test_accuracy()
    train_delta = faulty.final_train_accuracy() - ref_train
    test_delta = faulty.final_test_accuracy() - ref_test

    raw = faulty.train_accuracy_array()
    acc = moving_average(raw, th.smooth)
    # The curves are indexed by record position, not iteration: a
    # campaign record starts at the warm-up boundary, not at 0.
    at = int(np.searchsorted(faulty.iterations, t))
    # Pre-injection level: smoothed accuracy just before the fault.
    pre_lo = max(at - th.smooth, 0)
    pre = float(np.mean(acc[pre_lo : at + 1])) if acc.size > at else float(acc[-1]) if acc.size else 0.0
    # Sharp-drop detection runs on the raw curve, including iteration t
    # itself: the drop at the fault iteration comes from the faulty
    # device's shard predictions collapsing in that very iteration.
    post_window = raw[at : at + th.sharp_window + 1]
    sharp = bool(post_window.size and (pre - post_window.min()) >= th.sharp_drop)

    details = {
        "pre_injection_acc": pre,
        "ref_final_train": ref_train,
        "ref_final_test": ref_test,
    }

    # ------------------------------------------------------------------
    # Latent degradations.
    # ------------------------------------------------------------------
    train_degraded = train_delta < -th.slight_degrade
    test_degraded = test_delta < -th.slight_degrade

    if train_degraded:
        if sharp:
            # Sharp drop at injection: did degradation continue afterwards?
            # The smoothed level right after the drop window is the
            # reference; further decline below it marks the slow component.
            settle = at + th.sharp_window
            after_drop = acc[settle : settle + th.smooth]
            later = acc[settle + th.smooth :]
            continued = bool(
                after_drop.size
                and later.size
                and (float(after_drop.mean()) - float(later.min())) >= th.continued_degrade
            )
            outcome = Outcome.SHARP_SLOW_DEGRADE if continued else Outcome.SHARP_DEGRADE
        else:
            outcome = Outcome.SLOW_DEGRADE
        return OutcomeReport(outcome, t, train_delta, test_delta, sharp, details)

    if test_degraded:
        # Training accuracy normal, test visibly degraded: LowTestAccuracy.
        return OutcomeReport(
            Outcome.LOW_TEST_ACCURACY, t, train_delta, test_delta, sharp, details
        )

    # ------------------------------------------------------------------
    # Benign outcomes.
    # ------------------------------------------------------------------
    if train_delta >= 0 and test_delta >= -th.slight_degrade / 2:
        outcome = Outcome.MASKED_IMPROVED
    else:
        outcome = Outcome.MASKED_SLIGHT_DEGRADE
    return OutcomeReport(outcome, t, train_delta, test_delta, sharp, details)


def classify_outcomes(
    records: list[ConvergenceRecord],
    reference: ConvergenceRecord,
    injection_iterations: list[int],
    thresholds: ClassifierThresholds | None = None,
) -> list[OutcomeReport]:
    """Classify a batch of faulty runs against one shared reference:
    :func:`classify_outcome` per run, so a batch classifies exactly as
    its members would alone."""
    return [classify_outcome(record, reference, t, thresholds)
            for record, t in zip(records, injection_iterations)]


class InferenceOutcome(str, Enum):
    """Per-request outcome of a fault during inference (Table 5 axis).

    Inference has no convergence trend to classify, so the taxonomy
    collapses to the three-way split used by the inference-FI literature
    (TensorFI, PyTorchFI): did the top-1 prediction flip (SDC), did the
    corruption announce itself as INFs/NaNs, or was it masked entirely.
    Shared by the offline :class:`~repro.core.faults.campaign.InferenceCampaign`
    and the live ``repro.serving`` request path.
    """

    MASKED = "masked"
    SDC = "sdc"
    NONFINITE = "nonfinite"

    @property
    def is_silent(self) -> bool:
        """SDCs are silent; NaNs/INFs are detectable by a cheap screen."""
        return self is InferenceOutcome.SDC


def classify_inference_rows(
    faulty: np.ndarray, golden_pred: np.ndarray
) -> list[InferenceOutcome]:
    """Classify each row of a faulty batched forward against golden top-1.

    Precedence per row is SDC > NONFINITE > MASKED: a flipped prediction
    is an SDC even when the row also contains non-finite values (the
    user-visible answer changed — that the corruption was *also*
    detectable does not undo it).
    """
    faulty = np.asarray(faulty)
    sdc = top1(faulty) != np.asarray(golden_pred)
    finite = np.all(np.isfinite(faulty), axis=tuple(range(1, faulty.ndim)))
    out: list[InferenceOutcome] = []
    for flipped, ok in zip(sdc, finite):
        if flipped:
            out.append(InferenceOutcome.SDC)
        elif not ok:
            out.append(InferenceOutcome.NONFINITE)
        else:
            out.append(InferenceOutcome.MASKED)
    return out


def classify_inference_experiment(
    *, sdc: bool, nonfinite: bool
) -> InferenceOutcome:
    """Experiment-level outcome from batch-wide flags (same precedence)."""
    if sdc:
        return InferenceOutcome.SDC
    if nonfinite:
        return InferenceOutcome.NONFINITE
    return InferenceOutcome.MASKED


def inference_breakdown(outcomes: list[str]) -> dict[str, int]:
    """Counts per :class:`InferenceOutcome` value, all keys present."""
    counts = {o.value: 0 for o in InferenceOutcome}
    for name in outcomes:
        counts[str(name)] = counts.get(str(name), 0) + 1
    return counts
