"""Three-phase decomposition of SlowDegrade convergence trends (Fig. 5).

The paper explains SlowDegrade / SharpSlowDegrade under a normalizing
optimizer as three phases:

1. **Degradation** — the faulty history value ``m`` dominates updates,
   pushing weights in a wrong direction; accuracy falls.
2. **Stagnation** — the faulty ``v`` (squared-gradient history) stays
   huge, so effective step sizes collapse and accuracy stays low.
3. **Recovery** — ``v`` decays (rate ``beta2``) until true gradients
   matter again; accuracy can rise — though reaching this phase "may
   require millions of iterations" with large decay factors.

:func:`decompose_phases` finds these segments in an accuracy trace, and
:func:`expected_stagnation_iterations` gives the analytic Phase-2 length
implied by the decay factor and the faulty magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analysis.classify import moving_average


@dataclass
class PhaseAnalysis:
    """Detected phase boundaries (iteration indices, end-exclusive)."""

    injection_iteration: int
    degrade_span: tuple[int, int] | None
    stagnation_span: tuple[int, int] | None
    recovery_span: tuple[int, int] | None
    recovered: bool
    details: dict

    @property
    def has_three_phases(self) -> bool:
        """True when all three Fig. 5 phases were identified."""
        return all(
            span is not None
            for span in (self.degrade_span, self.stagnation_span, self.recovery_span)
        )


def decompose_phases(
    accuracy: np.ndarray,
    injection_iteration: int,
    reference_level: float,
    smooth: int = 7,
    low_margin: float = 0.1,
    recover_margin: float = 0.05,
) -> PhaseAnalysis:
    """Split a post-injection accuracy trace into the Fig. 5 phases.

    ``reference_level`` is the fault-free accuracy around the injection
    point.  Phase 1 runs from the injection until the trace reaches its
    low plateau; Phase 2 while it stays below ``reference_level -
    low_margin``; Phase 3 from the first sustained rise until the end.
    ``recovered`` is True if the trace returns within ``recover_margin``
    of the reference before the end.
    """
    t = int(injection_iteration)
    acc = moving_average(np.asarray(accuracy, dtype=np.float64), smooth)
    post = acc[t:]
    if post.size < 5:
        return PhaseAnalysis(t, None, None, None, False, {"reason": "trace too short"})

    low_level = reference_level - low_margin
    below = post < low_level
    if not below.any():
        return PhaseAnalysis(t, None, None, None, True, {"reason": "never degraded"})

    # Phase 1: injection -> first index of the minimum plateau.
    min_value = post.min()
    plateau = post <= min_value + 0.5 * low_margin
    plateau_start = int(np.argmax(plateau))
    degrade_span = (t, t + max(plateau_start, 1))

    # Phase 3: last sustained rise back above the plateau band.
    rise_threshold = min_value + 0.5 * low_margin
    above = post > rise_threshold
    recovery_start = None
    for i in range(max(plateau_start + 1, 1), post.size):
        if above[i:].all() and post.size - i >= 2:
            recovery_start = i
            break
    if recovery_start is None:
        stagnation_span = (degrade_span[1], t + post.size)
        return PhaseAnalysis(
            t, degrade_span, stagnation_span, None, False,
            {"min_accuracy": float(min_value)},
        )

    stagnation_span = (degrade_span[1], t + recovery_start)
    recovery_span = (t + recovery_start, t + post.size)
    recovered = bool(post[-3:].mean() >= reference_level - recover_margin)
    return PhaseAnalysis(
        t, degrade_span, stagnation_span, recovery_span, recovered,
        {"min_accuracy": float(min_value)},
    )


def decompose_phases_vs_reference(
    faulty_accuracy: np.ndarray,
    reference_accuracy: np.ndarray,
    injection_iteration: int,
    **kwargs,
) -> PhaseAnalysis:
    """Phase decomposition on the *deficit* against the fault-free run.

    When a fault strikes mid-training, "degradation" often manifests as
    stalled learning rather than falling accuracy: the faulty run stays
    flat while the fault-free reference keeps climbing.  Decomposing the
    deficit ``reference - faulty`` captures both falling-accuracy and
    stalled-learning shapes: Phase 1 = deficit growing, Phase 2 = deficit
    plateau, Phase 3 = deficit shrinking.
    """
    n = min(len(faulty_accuracy), len(reference_accuracy))
    deficit = (np.asarray(reference_accuracy[:n], dtype=np.float64)
               - np.asarray(faulty_accuracy[:n], dtype=np.float64))
    # Reuse the accuracy-space decomposition on the negated deficit: a
    # growing deficit is a falling "-deficit" below reference level 0.
    return decompose_phases(-deficit, injection_iteration, reference_level=0.0,
                            **kwargs)


def expected_stagnation_iterations(
    faulty_magnitude: float, decay_factor: float, normal_magnitude: float = 1.0
) -> float:
    """Analytic Phase-2 length: iterations until a faulty history value of
    ``faulty_magnitude`` decays below ``normal_magnitude``.

    ``v_t`` decays geometrically at ``decay_factor`` once the fault's
    contribution stops, so the crossing time is
    ``log(normal/faulty) / log(decay)``.  With the paper's example —
    decay 0.9999 and a faulty magnitude of 1e19 — this gives ~4.4e5
    iterations ("may require millions of iterations to fully recover").
    """
    if not 0.0 < decay_factor < 1.0:
        raise ValueError(f"decay factor must be in (0, 1): {decay_factor}")
    if faulty_magnitude <= normal_magnitude:
        return 0.0
    return float(np.log(normal_magnitude / faulty_magnitude) / np.log(decay_factor))
