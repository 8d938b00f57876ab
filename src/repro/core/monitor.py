"""Deadline monitoring and re-assignment (§2.2.1).

"Once workers undertake a task, Crowd4U monitors their collaboration for
ensuring successful task completion" — and before that, the monitor
enforces the two recruitment-side deadlines:

* **confirmation window**: a proposed team whose members did not all
  undertake in time is dissolved and assignment re-executes;
* **recruitment deadline** (the "expiration time for worker recruitment"
  the requester enters on the admin page, §2.4): a pending task past its
  deadline expires.
"""

from __future__ import annotations

from repro.core.assignment.controller import TaskAssignmentController
from repro.core.events import EventBus
from repro.core.tasks import TaskPool, TaskStatus
from repro.core.teams import TeamRegistry, TeamStatus


class CollaborationMonitor:
    def __init__(
        self,
        pool: TaskPool,
        teams: TeamRegistry,
        controller: TaskAssignmentController,
        events: EventBus,
    ) -> None:
        self.pool = pool
        self.teams = teams
        self.controller = controller
        self.events = events

    def tick(self, now: float) -> dict[str, int]:
        """Run one monitoring sweep; returns counters for observability."""
        dissolved = 0
        expired = 0
        for team in self.teams.by_status(TeamStatus.PROPOSED):
            if self.controller.check_confirmation_deadline(team.id, now):
                dissolved += 1
        for task in self.pool.by_status(TaskStatus.PENDING):
            if task.deadline is not None and now > task.deadline:
                self.pool.set_status(task.id, TaskStatus.EXPIRED)
                self.events.publish(
                    "task.expired", now, task_id=task.id,
                    project_id=task.project_id,
                )
                expired += 1
        return {"teams_dissolved": dissolved, "tasks_expired": expired}
