"""Statistical machinery for FI campaigns.

The paper reports 99%-confidence intervals of ±0.1% on outcome
percentages and a 99.5%-confidence bound of <0.004% on the probability of
an unexposed outcome (Sec. 4.1).  At our reduced experiment counts the
same estimators apply with wider intervals; this module provides them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: z-scores for common confidence levels.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.995: 2.8070}


def z_score(confidence: float) -> float:
    """Two-sided normal z-score for a confidence level."""
    if confidence in _Z:
        return _Z[confidence]
    # Fall back to scipy when available for non-standard levels.
    try:
        from scipy.stats import norm

        return float(norm.ppf(0.5 + confidence / 2.0))
    except ImportError:  # pragma: no cover - scipy is a dev dependency
        raise ValueError(f"unsupported confidence level: {confidence}")


@dataclass(frozen=True)
class ProportionEstimate:
    """A proportion with its Wilson confidence interval."""

    successes: int
    trials: int
    confidence: float
    point: float
    low: float
    high: float

    @property
    def half_width(self) -> float:
        """Half the confidence interval's width."""
        return (self.high - self.low) / 2.0


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> ProportionEstimate:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    z = z_score(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # At 0 or all successes the bound and the estimate are equal in exact
    # arithmetic; rounding can leave the bound an ulp on the wrong side.
    return ProportionEstimate(
        successes, trials, confidence, p,
        max(0.0, min(center - margin, p)), min(1.0, max(center + margin, p)),
    )


def difference_interval(a_successes: int, a_trials: int, b_successes: int,
                        b_trials: int, confidence: float = 0.99
                        ) -> tuple[float, float]:
    """Interval for the difference ``p_a - p_b`` of two independent
    proportions: Newcombe's hybrid score interval (Statistics in
    Medicine 17, 1998, method 10), built from each side's Wilson
    interval."""
    a = wilson_interval(a_successes, a_trials, confidence)
    b = wilson_interval(b_successes, b_trials, confidence)
    delta = a.point - b.point
    return (delta - float(np.hypot(a.point - a.low, b.high - b.point)),
            delta + float(np.hypot(a.high - a.point, b.point - b.low)))


def unobserved_outcome_bound(trials: int, confidence: float = 0.995) -> float:
    """Upper bound on the probability of an outcome never observed in
    ``trials`` experiments (the paper's "<0.004% with 99.5% confidence").

    Exact binomial: if an event with probability p was seen 0 times in n
    trials, then with confidence c we have p <= 1 - (1-c)^(1/n).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    return float(1.0 - (1.0 - confidence) ** (1.0 / trials))


def experiments_for_interval(half_width: float, confidence: float = 0.99,
                             worst_p: float = 0.5) -> int:
    """Experiments needed for a +-``half_width`` interval at ``confidence``.

    The paper's >2.9M experiments achieve +-0.1% at 99% for per-workload
    breakdowns; this inverts the normal-approximation interval so benches
    can report the equivalent budget at our scale.
    """
    if not 0 < half_width < 1:
        raise ValueError("half_width must be in (0, 1)")
    z = z_score(confidence)
    return int(np.ceil(worst_p * (1 - worst_p) * (z / half_width) ** 2))
