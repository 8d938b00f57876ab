"""Projects and the Project Manager of Figure 2.

A requester registers a *project description* written in CyLog together
with the desired human factors (constraints) and the collaboration scheme.
"For each submitted project description, an administration page for the
project is generated" (§2.2.1) — the data model behind that page lives
here; its HTML rendering is in :mod:`repro.forms.admin`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.constraints import TeamConstraints
from repro.errors import PlatformError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util import IdFactory


class SchemeKind(enum.Enum):
    """The three worker collaboration schemes of §2.3."""

    SEQUENTIAL = "sequential"
    SIMULTANEOUS = "simultaneous"
    HYBRID = "hybrid"


class ProjectStatus(enum.Enum):
    ACTIVE = "active"
    PAUSED = "paused"
    FINISHED = "finished"


@dataclass(frozen=True)
class Project:
    id: str
    name: str
    requester: str
    cylog_source: str
    scheme: SchemeKind
    constraints: TeamConstraints
    assignment_algorithm: str = "greedy"
    status: ProjectStatus = ProjectStatus.ACTIVE
    created_at: float = 0.0
    #: Scheme-specific options (e.g. hybrid stage layout).
    options: dict[str, Any] = field(default_factory=dict)


_SCHEMA = TableSchema(
    "project",
    [
        Column("id", ColumnType.TEXT),
        Column("name", ColumnType.TEXT),
        Column("requester", ColumnType.TEXT),
        Column("cylog_source", ColumnType.TEXT),
        Column("scheme", ColumnType.TEXT),
        Column("assignment_algorithm", ColumnType.TEXT),
        Column("status", ColumnType.TEXT),
        Column("created_at", ColumnType.FLOAT),
        Column("options", ColumnType.JSON),
        Column("constraints", ColumnType.JSON),
    ],
    primary_key=("id",),
)


class ProjectManager:
    """Registry of all projects with persistence."""

    def __init__(self, db: Database, id_factory: IdFactory | None = None) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
        self._ids = id_factory or IdFactory("proj", width=4)
        self._cache: dict[str, Project] = {}
        for row in db.table(_SCHEMA.name).rows():
            project = _project_from_row(row)
            self._cache[project.id] = project
        self._ids.skip_past(self._cache)

    def register(
        self,
        name: str,
        requester: str,
        cylog_source: str,
        scheme: SchemeKind,
        constraints: TeamConstraints,
        assignment_algorithm: str = "greedy",
        created_at: float = 0.0,
        options: dict[str, Any] | None = None,
    ) -> Project:
        project = Project(
            id=self._ids.next(),
            name=name,
            requester=requester,
            cylog_source=cylog_source,
            scheme=scheme,
            constraints=constraints,
            assignment_algorithm=assignment_algorithm,
            created_at=created_at,
            options=dict(options or {}),
        )
        self.db.insert(_SCHEMA.name, _project_to_row(project))
        self._cache[project.id] = project
        return project

    def update_constraints(
        self, project_id: str, constraints: TeamConstraints
    ) -> Project:
        """Apply new desired human factors (the admin-form submit action)."""
        project = replace(self.get(project_id), constraints=constraints)
        self.db.update(_SCHEMA.name, (project_id,), _project_to_row(project))
        self._cache[project_id] = project
        return project

    def set_status(self, project_id: str, status: ProjectStatus) -> Project:
        project = replace(self.get(project_id), status=status)
        self.db.update(_SCHEMA.name, (project_id,), _project_to_row(project))
        self._cache[project_id] = project
        return project

    def get(self, project_id: str) -> Project:
        project = self._cache.get(project_id)
        if project is None:
            raise PlatformError(f"unknown project {project_id!r}")
        return project

    def all(self) -> list[Project]:
        return sorted(self._cache.values(), key=lambda p: p.id)

    def active(self) -> list[Project]:
        return [p for p in self.all() if p.status is ProjectStatus.ACTIVE]

    def __len__(self) -> int:
        return len(self._cache)


def constraints_to_dict(constraints: TeamConstraints) -> dict[str, Any]:
    """JSON-serialisable form of the desired human factors."""
    return {
        "min_size": constraints.min_size,
        "critical_mass": constraints.critical_mass,
        "skills": [
            {"skill": r.skill, "min_level": r.min_level, "aggregator": r.aggregator}
            for r in constraints.skills
        ],
        "required_languages": sorted(constraints.required_languages),
        "language_proficiency": constraints.language_proficiency,
        "quality_threshold": constraints.quality_threshold,
        "cost_budget": (
            None if constraints.cost_budget == float("inf") else constraints.cost_budget
        ),
        "region": constraints.region,
        "recruitment_deadline": constraints.recruitment_deadline,
        "confirmation_window": constraints.confirmation_window,
    }


def constraints_from_dict(payload: dict[str, Any]) -> TeamConstraints:
    from repro.core.constraints import SkillRequirement

    return TeamConstraints(
        min_size=payload.get("min_size", 1),
        critical_mass=payload.get("critical_mass", 5),
        skills=tuple(
            SkillRequirement(
                skill=entry["skill"],
                min_level=entry["min_level"],
                aggregator=entry.get("aggregator", "max"),
            )
            for entry in payload.get("skills", [])
        ),
        required_languages=frozenset(payload.get("required_languages", [])),
        language_proficiency=payload.get("language_proficiency", 0.3),
        quality_threshold=payload.get("quality_threshold", 0.0),
        cost_budget=(
            float("inf")
            if payload.get("cost_budget") is None
            else payload["cost_budget"]
        ),
        region=payload.get("region"),
        recruitment_deadline=payload.get("recruitment_deadline"),
        confirmation_window=payload.get("confirmation_window", 50.0),
    )


def _project_to_row(project: Project) -> dict[str, Any]:
    return {
        "id": project.id,
        "name": project.name,
        "requester": project.requester,
        "cylog_source": project.cylog_source,
        "scheme": project.scheme.value,
        "assignment_algorithm": project.assignment_algorithm,
        "status": project.status.value,
        "created_at": project.created_at,
        "options": dict(project.options),
        "constraints": constraints_to_dict(project.constraints),
    }


def _project_from_row(row: dict[str, Any]) -> Project:
    return Project(
        id=row["id"],
        name=row["name"],
        requester=row["requester"],
        cylog_source=row["cylog_source"],
        scheme=SchemeKind(row["scheme"]),
        constraints=constraints_from_dict(row["constraints"]),
        assignment_algorithm=row["assignment_algorithm"],
        status=ProjectStatus(row["status"]),
        created_at=row["created_at"],
        options=row["options"],
    )
