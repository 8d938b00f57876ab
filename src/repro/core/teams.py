"""Teams: the output of task assignment.

A team is a set of workers suggested by the assignment controller for one
collaborative task.  Members must confirm (enter *Undertakes*) before the
confirmation deadline; once all confirm, the task becomes active and the
collaboration scheme takes over.  "The result of the collaborative task is
submitted by one of the team members, but recorded as the result produced
by the team" (§2.3) — hence results carry the team id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import PlatformError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util import IdFactory


class TeamStatus(enum.Enum):
    PROPOSED = "proposed"      # suggested; awaiting member confirmations
    CONFIRMED = "confirmed"    # every member undertook the task
    DISSOLVED = "dissolved"    # confirmation deadline missed / member declined
    FINISHED = "finished"      # the task completed


@dataclass(frozen=True)
class Team:
    id: str
    task_id: str
    members: tuple[str, ...]
    status: TeamStatus = TeamStatus.PROPOSED
    affinity_score: float = 0.0
    algorithm: str = ""
    proposed_at: float = 0.0
    confirm_by: float | None = None
    confirmed: frozenset[str] = frozenset()

    @property
    def all_confirmed(self) -> bool:
        return set(self.confirmed) == set(self.members)

    def with_confirmation(self, worker_id: str) -> "Team":
        if worker_id not in self.members:
            raise PlatformError(
                f"worker {worker_id} is not a member of team {self.id}"
            )
        return replace(self, confirmed=self.confirmed | {worker_id})


_SCHEMA = TableSchema(
    "team",
    [
        Column("id", ColumnType.TEXT),
        Column("task_id", ColumnType.TEXT),
        Column("members", ColumnType.JSON),
        Column("status", ColumnType.TEXT),
        Column("affinity_score", ColumnType.FLOAT),
        Column("algorithm", ColumnType.TEXT),
        Column("proposed_at", ColumnType.FLOAT),
        Column("confirm_by", ColumnType.FLOAT, nullable=True),
        Column("confirmed", ColumnType.JSON),
    ],
    primary_key=("id",),
)


class TeamRegistry:
    """Persistent store of all proposed teams.

    Besides the id-keyed cache, teams sit in one insertion-ordered bucket
    per status and one per task, moved on every write and rebuilt on open,
    so the monitor's deadline sweep and the controller's dissolved-team
    check read their bucket instead of every team ever proposed.
    """

    def __init__(self, db: Database, id_factory: IdFactory | None = None) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
        # Indexes are not persisted: a reopened table needs them rebuilt.
        db.table(_SCHEMA.name).create_index(("task_id",))
        self._ids = id_factory or IdFactory("team", width=5)
        self._cache: dict[str, Team] = {}
        self._by_status: dict[TeamStatus, dict[str, Team]] = {
            status: {} for status in TeamStatus
        }
        self._by_task: dict[str, dict[str, Team]] = {}
        for row in db.table(_SCHEMA.name).rows():
            self._file(_team_from_row(row))
        self._ids.skip_past(self._cache)

    def _file(self, team: Team) -> None:
        """Put ``team`` into the cache and both of its buckets."""
        self._cache[team.id] = team
        self._by_status[team.status][team.id] = team
        self._by_task.setdefault(team.task_id, {})[team.id] = team

    def propose(
        self,
        task_id: str,
        members: tuple[str, ...],
        affinity_score: float,
        algorithm: str,
        proposed_at: float,
        confirm_by: float | None,
    ) -> Team:
        if not members:
            raise PlatformError("a team needs at least one member")
        team = Team(
            id=self._ids.next(),
            task_id=task_id,
            members=tuple(members),
            affinity_score=affinity_score,
            algorithm=algorithm,
            proposed_at=proposed_at,
            confirm_by=confirm_by,
        )
        self.db.insert(_SCHEMA.name, _team_to_row(team))
        self._file(team)
        return team

    def _replace(self, team: Team) -> Team:
        self.db.update(_SCHEMA.name, (team.id,), _team_to_row(team))
        old = self._cache[team.id]
        if old.status is not team.status:
            del self._by_status[old.status][team.id]
        self._file(team)
        return team

    def confirm_member(self, team_id: str, worker_id: str) -> Team:
        team = self.get(team_id).with_confirmation(worker_id)
        if team.all_confirmed and team.status is TeamStatus.PROPOSED:
            team = replace(team, status=TeamStatus.CONFIRMED)
        return self._replace(team)

    def set_status(self, team_id: str, status: TeamStatus) -> Team:
        return self._replace(replace(self.get(team_id), status=status))

    def get(self, team_id: str) -> Team:
        team = self._cache.get(team_id)
        if team is None:
            raise PlatformError(f"unknown team {team_id!r}")
        return team

    def for_task(self, task_id: str) -> list[Team]:
        return sorted(self._by_task.get(task_id, {}).values(), key=lambda t: t.id)

    def by_status(self, status: TeamStatus) -> list[Team]:
        return sorted(self._by_status[status].values(), key=lambda t: t.id)

    def previously_dissolved_members(self, task_id: str) -> set[frozenset[str]]:
        """Member sets of dissolved teams, so re-assignment avoids reproposing
        the exact same failed team (§2.2.1: find a *new* team)."""
        return {
            frozenset(team.members)
            for team in self.for_task(task_id)
            if team.status is TeamStatus.DISSOLVED
        }

    def all(self) -> list[Team]:
        return sorted(self._cache.values(), key=lambda t: t.id)

    def __len__(self) -> int:
        return len(self._cache)


def _team_to_row(team: Team) -> dict[str, Any]:
    return {
        "id": team.id,
        "task_id": team.task_id,
        "members": list(team.members),
        "status": team.status.value,
        "affinity_score": team.affinity_score,
        "algorithm": team.algorithm,
        "proposed_at": team.proposed_at,
        "confirm_by": team.confirm_by,
        "confirmed": sorted(team.confirmed),
    }


def _team_from_row(row: dict[str, Any]) -> Team:
    return Team(
        id=row["id"],
        task_id=row["task_id"],
        members=tuple(row["members"]),
        status=TeamStatus(row["status"]),
        affinity_score=row["affinity_score"],
        algorithm=row["algorithm"],
        proposed_at=row["proposed_at"],
        confirm_by=row["confirm_by"],
        confirmed=frozenset(row["confirmed"]),
    )
