"""Result coordination bookkeeping (§2.3).

When a collaboration finishes, the coordinator:

* completes the root task with the team's payload,
* records the result in the ``team_result`` relation **credited to the
  team** ("submitted by one of the team members, but recorded as the
  result produced by the team"),
* moves every member's relationship to *Completed*,
* reinforces the affinity matrix with the observed outcome quality, so
  successful teams become more likely to be re-formed.
"""

from __future__ import annotations

from repro.core.affinity import AffinityMatrix
from repro.core.collaboration.base import TeamResult
from repro.core.events import EventBus
from repro.core.relationships import RelationshipLedger, RelationshipStatus
from repro.core.tasks import TaskPool
from repro.core.teams import TeamRegistry, TeamStatus
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util import IdFactory

_SCHEMA = TableSchema(
    "team_result",
    [
        Column("id", ColumnType.TEXT),
        Column("task_id", ColumnType.TEXT),
        Column("team_id", ColumnType.TEXT),
        Column("project_id", ColumnType.TEXT),
        Column("submitted_by", ColumnType.TEXT),
        Column("time", ColumnType.FLOAT),
        Column("quality", ColumnType.FLOAT),
        Column("payload", ColumnType.JSON),
    ],
    primary_key=("id",),
)


class ResultCoordinator:
    """Finalises collaborative tasks and feeds outcomes back into the
    platform's learning loops."""

    def __init__(
        self,
        db: Database,
        pool: TaskPool,
        teams: TeamRegistry,
        ledger: RelationshipLedger,
        affinity: AffinityMatrix,
        events: EventBus,
    ) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
        self.pool = pool
        self.teams = teams
        self.ledger = ledger
        self.affinity = affinity
        self.events = events
        self._ids = IdFactory("res", width=6)
        self._ids.skip_past(pk for (pk,) in db.table(_SCHEMA.name).pks())

    def record(self, result: TeamResult, quality: float, now: float) -> str:
        """Finalise one collaborative task; returns the result row id."""
        task = self.pool.get(result.task_id)
        self.pool.complete(result.task_id, result.payload)
        team = self.teams.get(result.team_id)
        self.teams.set_status(team.id, TeamStatus.FINISHED)
        for member in team.members:
            if self.ledger.status(member, task.id) is RelationshipStatus.UNDERTAKES:
                self.ledger.complete(member, task.id, now)
        if len(team.members) > 1:
            self.affinity.reinforce(team.members, quality)
        row_id = self._ids.next()
        self.db.insert(
            _SCHEMA.name,
            {
                "id": row_id,
                "task_id": result.task_id,
                "team_id": result.team_id,
                "project_id": task.project_id,
                "submitted_by": result.submitted_by,
                "time": result.time,
                "quality": quality,
                "payload": dict(result.payload),
            },
        )
        self.events.publish(
            "task.completed",
            now,
            task_id=task.id,
            team_id=team.id,
            project_id=task.project_id,
            submitted_by=result.submitted_by,
            quality=quality,
        )
        return row_id

    def results_for_project(self, project_id: str) -> list[dict]:
        return [
            row
            for row in self.db.table(_SCHEMA.name).rows()
            if row["project_id"] == project_id
        ]
