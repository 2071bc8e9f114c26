"""One guard protocol for the Sec. 5 / Sec. 6 mitigation techniques.

Algorithm 1's bound checks, ABFT checksums, Ranger activation bounds and
gradient clipping each run their own check at their own hook point, and
all four fire through :meth:`Guard.fire`: one :class:`Detection`, one
``trainer.record.detections`` entry and one ``detector_fired`` event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe import DETECTOR_FIRED

#: Algorithm 1's technique name.  Its ``detector_fired`` events carry no
#: ``technique`` field, so traces recorded before the other guards could
#: fire still replay byte for byte.
ALG1 = "alg1"


@dataclass
class Detection:
    """One firing of a guard."""

    iteration: int
    technique: str  # "alg1", "abft", "ranger" or "clipping"
    #: An Algorithm 1 condition ("first_moment", "second_moment",
    #: "mvar"), the layer ABFT or Ranger checked, or clipping's "grad_norm".
    condition: str
    magnitude: float
    bound: float

    def describe(self) -> str:
        return (
            f"iteration {self.iteration}: {self.condition} magnitude "
            f"{self.magnitude:.3e} exceeds bound {self.bound:.3e}"
        )


def first_detection(fired, fault_iteration: int):
    """The first of ``fired`` (in firing order; a :class:`Detection` or a
    ``detector_fired`` event) at or after ``fault_iteration``, or ``None``.
    The one latency rule: a firing before the fault is not a detection
    of it, so a guard that fired on fault-free state reads no negative
    latency."""
    return next((e for e in fired if e.iteration >= fault_iteration), None)


class Guard:
    """Base of the four techniques: owns the firing record.  A subclass
    sets :attr:`technique` and overrides the hook points its check runs
    at; the rest do nothing, so ``MitigationHook`` drives any guard."""

    technique: str = ""

    def __init__(self):
        self.events: list[Detection] = []
        self._latest: int | None = None  # stamp of this iteration's firing

    def fire(self, trainer, event: Detection) -> None:
        """Record ``event`` on the guard and the trainer, and trace it."""
        self.events.append(event)
        self._latest = event.iteration
        trainer.record.detections.append(event.iteration)
        extra = {} if self.technique == ALG1 else {"technique": self.technique}
        trainer.tracer.emit(
            DETECTOR_FIRED, iteration=event.iteration,
            condition=event.condition, magnitude=event.magnitude,
            bound=event.bound, **extra)

    def before_iteration(self, trainer, iteration: int) -> None:
        self._latest = None

    def _no_check(self, trainer, iteration: int, *_) -> None:
        """This guard checks nothing at this hook point."""

    after_backward = after_step = after_iteration = _no_check

    @property
    def fired(self) -> bool:
        return bool(self.events)

    def fired_at(self) -> int | None:
        """Iteration of the first firing, if any."""
        return self.events[0].iteration if self.events else None

    def fired_in(self, iteration: int) -> bool:
        """Whether the guard fired in ``iteration``, the iteration the
        trainer is running or has just run (after a rewind, in its
        re-execution only)."""
        return self._latest == iteration

    def detection_latency(self, fault_iteration: int) -> int | None:
        """Iterations from the fault to its detection, ``None`` if missed."""
        first = first_detection(self.events, fault_iteration)
        return None if first is None else first.iteration - fault_iteration
