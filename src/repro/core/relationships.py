"""The three explicit worker↔task relationships (paper §2.2).

    (1) *Eligible* — computed by the CyLog processor from the project
        description and worker human factors.
    (2) *InterestedIn* — declared by the worker on her user page.
    (3) *Undertakes* — the worker confirms she performs the task; legal
        **only when the worker is Eligible for that task** (the paper's
        stated invariant, enforced here).

We additionally track *Declined* (a proposed worker refused or timed out)
and *Completed* for bookkeeping.  The ledger is persisted in the storage
engine and indexed both ways: by task and status, and by worker.
"""

from __future__ import annotations

import enum

from repro.errors import RelationshipError
from repro.storage import Column, ColumnType, Database, TableSchema, col


class RelationshipStatus(enum.Enum):
    ELIGIBLE = "eligible"
    INTERESTED = "interested"
    UNDERTAKES = "undertakes"
    DECLINED = "declined"
    COMPLETED = "completed"


#: Statuses that imply the worker is currently eligible for the task
#: (Eligible-rooted): the deeper worker-declared states all require — and
#: preserve — eligibility.  Shared by the ledger's queries and the
#: platform's cached worker-page query.
ELIGIBLE_ROOTED = (
    RelationshipStatus.ELIGIBLE,
    RelationshipStatus.INTERESTED,
    RelationshipStatus.UNDERTAKES,
)

#: Legal transitions; ``None`` is the initial (absent) state.
_LEGAL_TRANSITIONS: dict[RelationshipStatus | None, set[RelationshipStatus]] = {
    None: {RelationshipStatus.ELIGIBLE},
    RelationshipStatus.ELIGIBLE: {
        RelationshipStatus.INTERESTED,
        RelationshipStatus.UNDERTAKES,  # direct undertake is allowed: still Eligible
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.INTERESTED: {
        RelationshipStatus.UNDERTAKES,
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.UNDERTAKES: {
        RelationshipStatus.COMPLETED,
        # A confirmed member whose team dissolved (another member declined or
        # timed out) drops back to Interested and remains a candidate when
        # assignment re-executes (§2.2.1).
        RelationshipStatus.INTERESTED,
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.DECLINED: {RelationshipStatus.INTERESTED},  # change of mind
    RelationshipStatus.COMPLETED: set(),
}

_SCHEMA = TableSchema(
    "relationship",
    [
        Column("worker_id", ColumnType.TEXT),
        Column("task_id", ColumnType.TEXT),
        Column("status", ColumnType.TEXT),
        Column("updated_at", ColumnType.FLOAT),
    ],
    primary_key=("worker_id", "task_id"),
)


class RelationshipLedger:
    """Persistent store of every (worker, task) relationship."""

    def __init__(self, db: Database) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
        # Indexes are not persisted: a reopened table needs them rebuilt.
        table = db.table(_SCHEMA.name)
        table.create_index(("task_id", "status"))
        table.create_index(("worker_id",))
        self._cache: dict[tuple[str, str], RelationshipStatus] = {}
        for row in table.rows():
            self._cache[(row["worker_id"], row["task_id"])] = RelationshipStatus(
                row["status"]
            )

    # -- state machine ---------------------------------------------------------
    def status(self, worker_id: str, task_id: str) -> RelationshipStatus | None:
        return self._cache.get((worker_id, task_id))

    def _transition(
        self,
        worker_id: str,
        task_id: str,
        target: RelationshipStatus,
        now: float,
    ) -> None:
        current = self.status(worker_id, task_id)
        if target is current:
            return  # idempotent
        legal = _LEGAL_TRANSITIONS[current]
        if target not in legal:
            origin = current.value if current else "absent"
            raise RelationshipError(
                f"illegal transition {origin} -> {target.value} for "
                f"(worker {worker_id}, task {task_id})"
            )
        if current is None:
            self.db.insert(
                _SCHEMA.name,
                {
                    "worker_id": worker_id,
                    "task_id": task_id,
                    "status": target.value,
                    "updated_at": now,
                },
            )
        else:
            self.db.update(
                _SCHEMA.name,
                (worker_id, task_id),
                {"status": target.value, "updated_at": now},
            )
        self._cache[(worker_id, task_id)] = target

    # -- the three paper relationships ------------------------------------------
    def mark_eligible(self, worker_id: str, task_id: str, now: float = 0.0) -> bool:
        """Record that the CyLog processor judged the worker eligible.

        Returns True when a new row was inserted (the worker had no
        relationship with the task before); a worker already in any state
        is left untouched and False is returned — the signal the platform's
        round-delta recording uses to report genuinely new eligibility.
        """
        if self.status(worker_id, task_id) is None:
            self._transition(worker_id, task_id, RelationshipStatus.ELIGIBLE, now)
            return True
        return False

    def revoke_eligibility(self, worker_id: str, task_id: str) -> bool:
        """Forget a *pure* Eligible relationship whose inputs no longer hold.

        Eligibility is system-derived, so when the deriving facts change
        (worker factors edited, constraints tightened) the platform retracts
        it.  Worker-declared states — Interested and deeper — survive factor
        changes and are never revoked here.  Returns True when a row was
        removed.
        """
        if self._cache.get((worker_id, task_id)) is not RelationshipStatus.ELIGIBLE:
            return False
        self.db.delete(_SCHEMA.name, (worker_id, task_id))
        del self._cache[(worker_id, task_id)]
        return True

    def declare_interest(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        """Worker declares interest; requires prior eligibility."""
        current = self.status(worker_id, task_id)
        if current is None:
            raise RelationshipError(
                f"worker {worker_id} is not eligible for task {task_id}; "
                "cannot declare interest"
            )
        self._transition(worker_id, task_id, RelationshipStatus.INTERESTED, now)

    def undertake(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        """Worker confirms performing the task.

        Enforces the paper's invariant: the pair may enter *Undertakes*
        only from an Eligible-rooted state.
        """
        current = self.status(worker_id, task_id)
        if current is None or current is RelationshipStatus.DECLINED:
            raise RelationshipError(
                f"worker {worker_id} cannot undertake task {task_id}: "
                f"not eligible (status: {current.value if current else 'absent'})"
            )
        self._transition(worker_id, task_id, RelationshipStatus.UNDERTAKES, now)

    def decline(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        self._transition(worker_id, task_id, RelationshipStatus.DECLINED, now)

    def complete(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        self._transition(worker_id, task_id, RelationshipStatus.COMPLETED, now)

    # -- queries --------------------------------------------------------------
    def workers_with_status(
        self, task_id: str, status: RelationshipStatus
    ) -> list[str]:
        rows = self.db.table(_SCHEMA.name).lookup(
            ("task_id", "status"), (task_id, status.value)
        )
        return sorted(row["worker_id"] for row in rows)

    def eligible_workers(self, task_id: str) -> list[str]:
        """Workers currently in any Eligible-rooted state for the task."""
        eligible: list[str] = []
        for status in ELIGIBLE_ROOTED:
            eligible.extend(self.workers_with_status(task_id, status))
        return sorted(eligible)

    def interested_workers(self, task_id: str) -> list[str]:
        return self.workers_with_status(task_id, RelationshipStatus.INTERESTED)

    def undertaking_workers(self, task_id: str) -> list[str]:
        return self.workers_with_status(task_id, RelationshipStatus.UNDERTAKES)

    def tasks_with_status(
        self, worker_id: str, status: RelationshipStatus
    ) -> list[str]:
        return sorted(
            self.db.query(_SCHEMA.name)
            .where((col("worker_id") == worker_id) & (col("status") == status.value))
            .scalars("task_id")
        )

    def counts_for_task(self, task_id: str) -> dict[str, int]:
        return {
            status.value: len(self.workers_with_status(task_id, status))
            for status in RelationshipStatus
        }

    def __len__(self) -> int:
        return len(self._cache)
