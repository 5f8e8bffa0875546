"""Admission control for incremental migration steps.

An incremental :class:`~repro.online.migration.MigrationPlan` spreads a
migration's page traffic over the operation stream.  *When* each step is
admitted is a serving-layer policy:

``"fixed"``
    The classic cadence — one step every ``migration_step_ops`` operations
    past the plan's start, regardless of load.  Reorganisation I/O lands
    inside whatever the shard happens to be serving.

``"queue-depth"``
    Backpressure-aware pacing.  A step is admitted only once the shard's
    observed backlog (operations still queued in the chunk being served) has
    drained to ``max_backlog``, so a loaded shard defers reorganisation I/O
    out of its busy window; a starvation bound forces a step every
    ``starvation_ops`` operations so an always-busy shard still completes its
    plan, and an idle shard drains up to ``idle_step_burst`` steps per idle
    notification.

:class:`StepAdmission` is deliberately stateless: callers pass the stream
position, the plan's start position, the position of the last admitted step,
and the current backlog.  That keeps the per-operation check
(:meth:`should_step`) and the chunk-bounding math (:meth:`ops_until_step`)
provably consistent — both read the same inputs, and within a chunk the
backlog decreases by exactly one per operation, so the first admitting
position can be computed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Admission policies for incremental migration steps.
ADMISSION_MODES: tuple[str, ...] = ("fixed", "queue-depth")


@dataclass(frozen=True)
class StepAdmission:
    """Decides at which stream positions migration steps are admitted."""

    #: One of :data:`ADMISSION_MODES`.
    mode: str = "fixed"
    #: Base cadence in operations (the ``migration_step_ops`` knob).
    step_ops: int = 256
    #: Backlog (queued operations) at or below which a due step is admitted
    #: under ``"queue-depth"``.
    max_backlog: int = 256
    #: Hard bound on operations between steps under ``"queue-depth"``: a step
    #: is forced once this many operations passed since the last one, however
    #: deep the backlog.
    starvation_ops: int = 4_096
    #: Steps drained per :meth:`~repro.online.controller.OnlineLSMController.
    #: note_idle` call under ``"queue-depth"`` (0 under ``"fixed"``).
    idle_step_burst: int = 8

    def __post_init__(self) -> None:
        if self.mode not in ADMISSION_MODES:
            raise ValueError(
                f"admission mode must be one of {ADMISSION_MODES}, got {self.mode!r}"
            )
        if self.step_ops <= 0:
            raise ValueError("step_ops must be positive")
        if self.max_backlog < 0:
            raise ValueError("max_backlog must be non-negative")
        if self.mode != "fixed" and self.starvation_ops < self.step_ops:
            raise ValueError(
                "starvation_ops must be at least step_ops: the starvation "
                "bound can only defer steps, not speed them up"
            )
        if self.idle_step_burst < 0:
            raise ValueError("idle_step_burst must be non-negative")

    @property
    def idle_steps(self) -> int:
        """Steps to drain on an idle notification (0 under ``"fixed"``)."""
        return 0 if self.mode == "fixed" else self.idle_step_burst

    def should_step(
        self, position: int, plan_started: int, last_step: int, backlog: int
    ) -> bool:
        """Whether a step is admitted at ``position`` (checked after each op).

        ``"fixed"`` reproduces the historical cadence bit-for-bit:
        ``(position - plan_started) % step_ops == 0``.  ``"queue-depth"``
        admits once ``step_ops`` operations passed since the last step *and*
        the backlog drained to ``max_backlog``, or unconditionally at the
        ``starvation_ops`` bound.
        """
        if self.mode == "fixed":
            return (position - plan_started) % self.step_ops == 0
        since = position - last_step
        if since >= self.starvation_ops:
            return True
        return since >= self.step_ops and backlog <= self.max_backlog

    def ops_until_step(
        self, position: int, plan_started: int, last_step: int, backlog: int
    ) -> int:
        """Operations until :meth:`should_step` next admits (at least 1).

        Exact under the serving loop's invariant that the backlog decreases
        by one per executed operation: after ``k`` more operations the elapsed
        count grows by ``k`` and the backlog shrinks by ``k``, so the first
        admitting ``k`` solves in closed form.  The controller cuts its replay
        chunks by this, guaranteeing a chunk never skips over an admission a
        per-operation loop would have taken.
        """
        if self.mode == "fixed":
            return self.step_ops - (position - plan_started) % self.step_ops
        since = position - last_step
        until_starved = self.starvation_ops - since
        until_due = max(self.step_ops - since, backlog - self.max_backlog)
        return max(1, min(until_starved, until_due))
