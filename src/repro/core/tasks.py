"""Tasks and the task pool of Figure 2.

Tasks come in two layers:

* **root collaborative tasks** generated by a project's CyLog processor
  (kind ``OPEN_FILL``) or registered directly — these go through team
  formation and a collaboration scheme;
* **internal micro-tasks** generated *by* collaboration schemes for
  specific team members (drafting, reviewing, SNS-ID solicitation, joint
  editing) — these are pre-addressed and skip team formation.

The pool persists every task in the storage engine; hot-path queries run
against in-memory state: one insertion-ordered bucket of tasks per status,
so a round's status queries read only the tasks in that status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.errors import PlatformError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util import IdFactory


class TaskKind(enum.Enum):
    #: Fill the non-key columns of an open predicate (CyLog-generated).
    OPEN_FILL = "open_fill"
    #: Stage-1 micro-task of the simultaneous scheme: solicit an SNS id.
    SOLICIT_SNS = "solicit_sns"
    #: Stage-2 team task of the simultaneous scheme: joint editing.
    JOINT = "joint"
    #: Sequential-scheme micro-task: produce or improve a draft.
    DRAFT = "draft"
    #: Sequential-scheme micro-task: check/correct a previous contribution.
    REVIEW = "review"
    #: Requester-defined task outside CyLog.
    CUSTOM = "custom"


class TaskStatus(enum.Enum):
    PENDING = "pending"        # in the pool, awaiting a team
    PROPOSED = "proposed"      # a team was suggested; awaiting confirmations
    ACTIVE = "active"          # undertaken; collaboration in progress
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"        # recruitment deadline passed


#: Statuses from which a task can still reach completion.
OPEN_STATUSES = (TaskStatus.PENDING, TaskStatus.PROPOSED, TaskStatus.ACTIVE)


@dataclass(frozen=True)
class Task:
    """One unit of (individual or team) work."""

    id: str
    project_id: str
    kind: TaskKind
    instruction: str
    status: TaskStatus = TaskStatus.PENDING
    #: CyLog linkage for OPEN_FILL tasks.
    predicate: str | None = None
    key_values: tuple[Any, ...] = ()
    fill_columns: tuple[str, ...] = ()
    choices: tuple[Any, ...] = ()
    #: Addressing: root tasks have no assignee until a team forms;
    #: scheme-internal micro-tasks are pre-addressed to one worker.
    assignee: str | None = None
    team_id: str | None = None
    parent_task_id: str | None = None
    #: Free-form payload (documents, scheme state, workload parameters).
    payload: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] | None = None
    created_at: float = 0.0
    deadline: float | None = None

    @property
    def is_root(self) -> bool:
        """Root tasks undergo team formation; micro-tasks are addressed."""
        return self.parent_task_id is None and self.assignee is None

    @property
    def is_open(self) -> bool:
        return self.status in OPEN_STATUSES

    def with_status(self, status: TaskStatus) -> "Task":
        return replace(self, status=status)


_SCHEMA = TableSchema(
    "task",
    [
        Column("id", ColumnType.TEXT),
        Column("project_id", ColumnType.TEXT),
        Column("kind", ColumnType.TEXT),
        Column("status", ColumnType.TEXT),
        Column("instruction", ColumnType.TEXT),
        Column("predicate", ColumnType.TEXT, nullable=True),
        Column("key_values", ColumnType.JSON),
        Column("fill_columns", ColumnType.JSON),
        Column("choices", ColumnType.JSON),
        Column("assignee", ColumnType.TEXT, nullable=True),
        Column("team_id", ColumnType.TEXT, nullable=True),
        Column("parent_task_id", ColumnType.TEXT, nullable=True),
        Column("payload", ColumnType.JSON),
        Column("result", ColumnType.JSON, nullable=True),
        Column("created_at", ColumnType.FLOAT),
        Column("deadline", ColumnType.FLOAT, nullable=True),
    ],
    primary_key=("id",),
)


class TaskPool:
    """Persistent registry of every task on the platform."""

    def __init__(self, db: Database, id_factory: IdFactory | None = None) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
        # Indexes are not persisted: a reopened table needs them rebuilt.
        # ``assignee`` and ``(kind, status)`` serve the worker page's
        # addressed-task and JOINT-task queries.
        table = db.table(_SCHEMA.name)
        for columns in (
            ("project_id", "status"), ("status",), ("assignee",), ("kind", "status"),
        ):
            table.create_index(columns)
        self._cache: dict[str, Task] = {}
        #: status -> the tasks in that status, in arrival order.
        self._by_status: dict[TaskStatus, dict[str, Task]] = {
            status: {} for status in TaskStatus
        }
        #: Creation hook: every scheme and platform path goes through
        #: :meth:`create`, so one callback observes every task the moment it
        #: exists (the platform wires it to a ``task.created`` event).
        self.on_create: Callable[[Task], None] | None = None
        for row in table.rows():
            task = _task_from_row(row)
            self._cache[task.id] = task
            self._by_status[task.status][task.id] = task
        self._ids = id_factory or IdFactory("task", width=6)
        self._ids.skip_past(self._cache)

    # -- creation ---------------------------------------------------------------
    def create(
        self,
        project_id: str,
        kind: TaskKind,
        instruction: str,
        **attrs: Any,
    ) -> Task:
        """Create, persist and return a new task."""
        task = Task(
            id=self._ids.next(),
            project_id=project_id,
            kind=kind,
            instruction=instruction,
            **attrs,
        )
        self.db.insert(_SCHEMA.name, _task_to_row(task))
        self._cache[task.id] = task
        self._by_status[task.status][task.id] = task
        if self.on_create is not None:
            self.on_create(task)
        return task

    # -- state updates ---------------------------------------------------------
    def _replace(self, task: Task) -> Task:
        self.db.update(_SCHEMA.name, (task.id,), _task_to_row(task))
        old = self._cache[task.id]
        if old.status is not task.status:
            del self._by_status[old.status][task.id]
        self._by_status[task.status][task.id] = task
        self._cache[task.id] = task
        return task

    def set_status(self, task_id: str, status: TaskStatus) -> Task:
        return self._replace(replace(self.get(task_id), status=status))

    def assign_team(self, task_id: str, team_id: str) -> Task:
        task = self.get(task_id)
        return self._replace(
            replace(task, team_id=team_id, status=TaskStatus.PROPOSED)
        )

    def clear_team(self, task_id: str) -> Task:
        task = self.get(task_id)
        return self._replace(
            replace(task, team_id=None, status=TaskStatus.PENDING)
        )

    def activate(self, task_id: str) -> Task:
        return self.set_status(task_id, TaskStatus.ACTIVE)

    def set_assignee(self, task_id: str, worker_id: str) -> Task:
        """Record who formally performed the task (e.g. the member who
        submits a JOINT task on behalf of the team)."""
        return self._replace(replace(self.get(task_id), assignee=worker_id))

    def complete(self, task_id: str, result: dict[str, Any]) -> Task:
        task = self.get(task_id)
        if task.status is TaskStatus.COMPLETED:
            raise PlatformError(f"task {task_id} already completed")
        return self._replace(
            replace(task, status=TaskStatus.COMPLETED, result=dict(result))
        )

    def update_payload(self, task_id: str, **updates: Any) -> Task:
        task = self.get(task_id)
        payload = dict(task.payload)
        payload.update(updates)
        return self._replace(replace(task, payload=payload))

    # -- queries -----------------------------------------------------------------
    def get(self, task_id: str) -> Task:
        task = self._cache.get(task_id)
        if task is None:
            raise PlatformError(f"unknown task {task_id!r}")
        return task

    def maybe(self, task_id: str) -> Task | None:
        return self._cache.get(task_id)

    def all(self) -> list[Task]:
        return sorted(self._cache.values(), key=lambda t: t.id)

    def by_status(self, status: TaskStatus, project_id: str | None = None) -> list[Task]:
        return self._in_statuses((status,), project_id)

    def open_tasks(self, project_id: str | None = None) -> list[Task]:
        return self._in_statuses(OPEN_STATUSES, project_id)

    def _in_statuses(
        self, statuses: Iterable[TaskStatus], project_id: str | None
    ) -> list[Task]:
        """The tasks in ``statuses`` (of one project), sorted by id."""
        tasks = [
            task
            for status in statuses
            for task in self._by_status[status].values()
            if project_id is None or task.project_id == project_id
        ]
        return sorted(tasks, key=lambda t: t.id)

    def pending_root_tasks(self, project_id: str | None = None) -> list[Task]:
        """Root tasks awaiting team formation."""
        return [t for t in self.by_status(TaskStatus.PENDING, project_id) if t.is_root]

    def micro_tasks_for(self, worker_id: str) -> list[Task]:
        """Open, pre-addressed micro-tasks for one worker."""
        return [t for t in self.open_tasks() if t.assignee == worker_id]

    def children_of(self, task_id: str) -> list[Task]:
        return sorted(
            (t for t in self._cache.values() if t.parent_task_id == task_id),
            key=lambda t: t.id,
        )

    def counts(self) -> dict[str, int]:
        by_status: dict[str, int] = {}
        for task in self._cache.values():
            by_status[task.status.value] = by_status.get(task.status.value, 0) + 1
        return by_status

    def __len__(self) -> int:
        return len(self._cache)

    def __iter__(self) -> Iterable[Task]:
        return iter(self.all())


def _task_to_row(task: Task) -> dict[str, Any]:
    return {
        "id": task.id,
        "project_id": task.project_id,
        "kind": task.kind.value,
        "status": task.status.value,
        "instruction": task.instruction,
        "predicate": task.predicate,
        "key_values": list(task.key_values),
        "fill_columns": list(task.fill_columns),
        "choices": list(task.choices),
        "assignee": task.assignee,
        "team_id": task.team_id,
        "parent_task_id": task.parent_task_id,
        "payload": dict(task.payload),
        "result": dict(task.result) if task.result is not None else None,
        "created_at": task.created_at,
        "deadline": task.deadline,
    }


def _task_from_row(row: dict[str, Any]) -> Task:
    return Task(
        id=row["id"],
        project_id=row["project_id"],
        kind=TaskKind(row["kind"]),
        status=TaskStatus(row["status"]),
        instruction=row["instruction"],
        predicate=row["predicate"],
        key_values=tuple(row["key_values"]),
        fill_columns=tuple(row["fill_columns"]),
        choices=tuple(row["choices"]),
        assignee=row["assignee"],
        team_id=row["team_id"],
        parent_task_id=row["parent_task_id"],
        payload=row["payload"],
        result=row["result"],
        created_at=row["created_at"],
        deadline=row["deadline"],
    )
