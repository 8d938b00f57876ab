"""Worker entities and the Worker Manager of Figure 2.

The worker manager persists worker profiles in the storage engine (the
"User Properties" store) and keeps hydrated :class:`Worker` objects cached
for the hot paths (assignment, affinity computation).  It supplies the task
assignment controller with human factors, and the CyLog processor with
worker fact rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.core.human_factors import HumanFactors
from repro.errors import PlatformError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util import IdFactory


@dataclass(frozen=True)
class Worker:
    """One registered crowd worker."""

    id: str
    name: str
    factors: HumanFactors
    joined_at: float = 0.0

    def with_factors(self, factors: HumanFactors) -> "Worker":
        return replace(self, factors=factors)


_WORKER_SCHEMA = TableSchema(
    "worker_profile",
    [
        Column("id", ColumnType.TEXT),
        Column("name", ColumnType.TEXT),
        Column("region", ColumnType.TEXT),
        Column("reliability", ColumnType.FLOAT),
        Column("cost", ColumnType.FLOAT),
        Column("sns_id", ColumnType.TEXT, nullable=True),
        Column("joined_at", ColumnType.FLOAT),
        Column("native_languages", ColumnType.JSON),
        Column("languages", ColumnType.JSON),
        Column("skills", ColumnType.JSON),
        Column("coordinates", ColumnType.JSON, nullable=True),
        Column("extras", ColumnType.JSON),
    ],
    primary_key=("id",),
)


class WorkerManager:
    """Registry of workers with write-through persistence."""

    def __init__(self, db: Database, id_factory: IdFactory | None = None) -> None:
        self.db = db
        if not db.has_table(_WORKER_SCHEMA.name):
            db.create_table(_WORKER_SCHEMA)
        self._ids = id_factory or IdFactory("w", width=5)
        self._cache: dict[str, Worker] = {}
        for row in db.table(_WORKER_SCHEMA.name).rows():
            self._cache[row["id"]] = _worker_from_row(row)
        self._ids.skip_past(self._cache)

    # -- registration -----------------------------------------------------------
    def register(
        self, name: str, factors: HumanFactors, joined_at: float = 0.0
    ) -> Worker:
        """Create a worker with a fresh id and persist the profile."""
        worker = Worker(
            id=self._ids.next(), name=name, factors=factors, joined_at=joined_at
        )
        self.db.insert(_WORKER_SCHEMA.name, _worker_to_row(worker))
        self._cache[worker.id] = worker
        return worker

    def update_factors(self, worker_id: str, factors: HumanFactors) -> Worker:
        """Replace a worker's human factors (Figure 4's editable page)."""
        worker = self.get(worker_id).with_factors(factors)
        self.db.update(
            _WORKER_SCHEMA.name, (worker_id,), _worker_to_row(worker)
        )
        self._cache[worker_id] = worker
        return worker

    def remove(self, worker_id: str) -> None:
        self.get(worker_id)  # raise early if unknown
        self.db.delete(_WORKER_SCHEMA.name, (worker_id,))
        del self._cache[worker_id]

    # -- queries --------------------------------------------------------------
    def get(self, worker_id: str) -> Worker:
        worker = self._cache.get(worker_id)
        if worker is None:
            raise PlatformError(f"unknown worker {worker_id!r}")
        return worker

    def maybe(self, worker_id: str) -> Worker | None:
        return self._cache.get(worker_id)

    def all(self) -> list[Worker]:
        return sorted(self._cache.values(), key=lambda w: w.id)

    def ids(self) -> list[str]:
        return sorted(self._cache)

    def __contains__(self, worker_id: object) -> bool:
        return worker_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self.all())

    def with_language(self, language: str, min_proficiency: float = 0.0) -> list[Worker]:
        return [w for w in self.all() if w.factors.speaks(language, min_proficiency)]

    def in_region(self, region: str) -> list[Worker]:
        return [w for w in self.all() if w.factors.region == region]

    def fact_rows(self) -> dict[str, list[tuple]]:
        """CyLog fact rows for every registered worker, merged by predicate."""
        merged: dict[str, list[tuple]] = {}
        for worker in self.all():
            for predicate, rows in worker.factors.as_fact_rows(worker.id).items():
                merged.setdefault(predicate, []).extend(rows)
        return merged


def _worker_to_row(worker: Worker) -> dict:
    factors = worker.factors
    return {
        "id": worker.id,
        "name": worker.name,
        "region": factors.region,
        "reliability": factors.reliability,
        "cost": factors.cost,
        "sns_id": factors.sns_id,
        "joined_at": worker.joined_at,
        "native_languages": sorted(factors.native_languages),
        "languages": dict(factors.languages),
        "skills": dict(factors.skills),
        "coordinates": list(factors.coordinates) if factors.coordinates else None,
        "extras": dict(factors.extras),
    }


def _worker_from_row(row: dict) -> Worker:
    factors = HumanFactors(
        native_languages=frozenset(row["native_languages"]),
        languages=row["languages"],
        region=row["region"],
        coordinates=tuple(row["coordinates"]) if row["coordinates"] else None,
        skills=row["skills"],
        reliability=row["reliability"],
        cost=row["cost"],
        sns_id=row["sns_id"],
        extras=row["extras"],
    )
    return Worker(
        id=row["id"], name=row["name"], factors=factors, joined_at=row["joined_at"]
    )
