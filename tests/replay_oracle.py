"""Scalar trace-replay oracle for the parity suites.

The program replays every trace through one kernel,
:func:`repro.storage.lsm_tree.execute_operations_batched` (GET spans drained
through ``get_many``, range scans run ahead of a pending span), and the
online controller feeds it chunks cut at the adaptive loop's boundaries
(:meth:`repro.online.controller.OnlineLSMController.execute_batched`).  This
module keeps the plain one-operation-at-a-time versions of both loops; the
parity suites assert the program agrees with them bit for bit.
"""

from __future__ import annotations

from repro.storage.lsm_tree import execute_operation


def replay_scalar(engine, operations) -> None:
    """Replay ``operations`` on ``engine`` one at a time, in stream order."""
    for operation in operations:
        execute_operation(engine, operation)


def apply_scalar(controller, operation) -> None:
    """Run one operation through the adaptive loop, checking its boundaries.

    The operation executes on the live tree (or on the mixed old/new state
    while a plan is in flight) and is folded into the estimator; then the
    plan advances if the admission policy admits a step here, or — with no
    plan in flight — the drift check runs every ``check_interval`` ops.
    """
    plan = controller.migration_plan
    execute_operation(plan if plan is not None else controller.tree, operation)
    controller.estimator.record_kind(operation.kind)
    controller.position += 1
    if controller._backlog > 0:
        controller._backlog -= 1
    if controller.migration_plan is not None:
        if controller.admission.should_step(
            controller.position, controller._plan_started,
            controller._last_step_position, controller._backlog,
        ):
            controller.advance_migration()
    elif controller.position % controller.config.check_interval == 0:
        controller.maybe_retune()


def execute_scalar(controller, operations) -> None:
    """Run a stream through the adaptive loop one operation at a time.

    The stream's length seeds the serving backlog the admission policy
    observes, exactly as ``execute_batched`` seeds it.
    """
    operations = list(operations)
    controller._backlog = len(operations)
    for operation in operations:
        apply_scalar(controller, operation)
    controller._backlog = 0
