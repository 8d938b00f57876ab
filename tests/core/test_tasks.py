"""Task pool lifecycle and queries."""

import pytest

from repro.core.tasks import TaskKind, TaskPool, TaskStatus
from repro.errors import PlatformError


@pytest.fixture
def pool(db):
    return TaskPool(db)


def _task(pool, **kwargs):
    base = dict(project_id="p1", kind=TaskKind.OPEN_FILL, instruction="do it")
    base.update(kwargs)
    return pool.create(**base)


class TestLifecycle:
    def test_create_persists(self, pool, db):
        task = _task(pool, predicate="translate", key_values=("s1",))
        row = db.table("task").get((task.id,))
        assert row["predicate"] == "translate"
        assert row["key_values"] == ["s1"]

    def test_status_flow(self, pool):
        task = _task(pool)
        pool.assign_team(task.id, "team1")
        assert pool.get(task.id).status is TaskStatus.PROPOSED
        pool.activate(task.id)
        assert pool.get(task.id).status is TaskStatus.ACTIVE
        pool.complete(task.id, {"text": "done"})
        assert pool.get(task.id).result == {"text": "done"}

    def test_double_complete_rejected(self, pool):
        task = _task(pool)
        pool.complete(task.id, {})
        with pytest.raises(PlatformError, match="already completed"):
            pool.complete(task.id, {})

    def test_clear_team_returns_to_pending(self, pool):
        task = _task(pool)
        pool.assign_team(task.id, "team1")
        pool.clear_team(task.id)
        reloaded = pool.get(task.id)
        assert reloaded.status is TaskStatus.PENDING
        assert reloaded.team_id is None

    def test_payload_update_merges(self, pool):
        task = _task(pool, payload={"a": 1})
        pool.update_payload(task.id, b=2)
        assert pool.get(task.id).payload == {"a": 1, "b": 2}

    def test_set_assignee(self, pool):
        task = _task(pool)
        pool.set_assignee(task.id, "w9")
        assert pool.get(task.id).assignee == "w9"

    def test_unknown_task(self, pool):
        with pytest.raises(PlatformError, match="unknown task"):
            pool.get("nope")


class TestQueries:
    def test_root_vs_micro(self, pool):
        root = _task(pool)
        micro = _task(pool, assignee="w1", parent_task_id=root.id,
                      kind=TaskKind.DRAFT)
        assert root.is_root and not micro.is_root
        assert pool.pending_root_tasks() == [pool.get(root.id)]

    def test_micro_tasks_for_worker(self, pool):
        root = _task(pool)
        mine = _task(pool, assignee="w1", parent_task_id=root.id,
                     kind=TaskKind.DRAFT)
        _task(pool, assignee="w2", parent_task_id=root.id, kind=TaskKind.DRAFT)
        assert [t.id for t in pool.micro_tasks_for("w1")] == [mine.id]

    def test_completed_micro_not_listed(self, pool):
        root = _task(pool)
        micro = _task(pool, assignee="w1", parent_task_id=root.id,
                      kind=TaskKind.DRAFT)
        pool.complete(micro.id, {})
        assert pool.micro_tasks_for("w1") == []

    def test_by_status_filters_project(self, pool):
        _task(pool, project_id="p1")
        _task(pool, project_id="p2")
        assert len(pool.by_status(TaskStatus.PENDING, "p1")) == 1

    def test_children_of(self, pool):
        root = _task(pool)
        child_a = _task(pool, assignee="w", parent_task_id=root.id,
                        kind=TaskKind.DRAFT)
        child_b = _task(pool, assignee="w", parent_task_id=root.id,
                        kind=TaskKind.REVIEW)
        assert [t.id for t in pool.children_of(root.id)] == [child_a.id, child_b.id]

    def test_counts(self, pool):
        _task(pool)
        done = _task(pool)
        pool.complete(done.id, {})
        assert pool.counts() == {"pending": 1, "completed": 1}

    def test_rehydration(self, db):
        pool = TaskPool(db)
        task = _task(pool, payload={"x": [1, 2]})
        fresh = TaskPool(db)
        loaded = fresh.get(task.id)
        assert loaded.payload == {"x": [1, 2]}
        assert loaded.kind is TaskKind.OPEN_FILL


class TestStatusBuckets:
    def _expected(self, pool, statuses, project_id=None):
        return [
            t for t in pool.all()
            if t.status in statuses
            and (project_id is None or t.project_id == project_id)
        ]

    def _check(self, pool):
        from repro.core.tasks import OPEN_STATUSES

        for status in TaskStatus:
            for project in (None, "p1", "p2"):
                assert pool.by_status(status, project) == self._expected(
                    pool, (status,), project
                )
        assert pool.open_tasks() == self._expected(pool, OPEN_STATUSES)
        assert pool.pending_root_tasks("p2") == [
            t for t in self._expected(pool, (TaskStatus.PENDING,), "p2")
            if t.is_root
        ]

    def test_queries_follow_status_moves_and_reopen(self, pool, db):
        """Buckets move a task on every status change and are rebuilt from
        the table; answers stay sorted by id even when a task returns to a
        bucket after later tasks joined it."""
        first, second, third = (
            _task(pool, project_id=p) for p in ("p1", "p2", "p2")
        )
        _task(pool, project_id="p2", assignee="w1", parent_task_id=third.id,
              kind=TaskKind.DRAFT)
        pool.assign_team(first.id, "team1")
        pool.assign_team(second.id, "team2")
        pool.update_payload(third.id, note="kept in place")
        pool.clear_team(second.id)
        pool.activate(first.id)
        pool.complete(first.id, {})
        self._check(pool)
        assert [t.id for t in pool.by_status(TaskStatus.PENDING)][:2] == [
            second.id, third.id,
        ]
        self._check(TaskPool(db))

    def test_ids_resume_after_reopen(self, pool, db):
        created = [_task(pool).id for _ in range(3)]
        fresh = TaskPool(db)
        assert _task(fresh).id > max(created)
