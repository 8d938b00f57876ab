"""Whole-platform integration: several projects, schemes and crowds at once.

This is the closest analogue of the live demo floor: three projects with
different collaboration schemes share one worker population, one affinity
matrix and one task pool, and everything runs to quiescence under the
simulation driver.
"""

import pytest

from repro.apps.common import build_crowd
from repro.apps.journalism import build_journalism_project, journalism_answer_fn
from repro.apps.surveillance import (
    build_surveillance_project,
    surveillance_answer_fn,
)
from repro.apps.translation import (
    build_translation_project,
    translation_answer_fn,
)
from repro.core.tasks import TaskKind
from repro.sim import SimulationDriver
from repro.storage import dump_canonical, open_database
from repro.storage.backends import WalBackend


@pytest.fixture(scope="module")
def deployment():
    platform = build_crowd(60, seed=21)
    translation = build_translation_project(platform, ["clipA", "clipB"])
    journalism = build_journalism_project(platform, ["flood watch"])
    surveillance = build_surveillance_project(
        platform, regions=["tsukuba", "paris"], periods=["am"]
    )

    def answers(worker, task):
        project = platform.projects.get(task.project_id)
        if project.id == translation.id:
            return translation_answer_fn(worker, task)
        if project.id == journalism.id:
            return journalism_answer_fn(worker, task)
        return surveillance_answer_fn(worker, task)

    driver = SimulationDriver(platform, answer_fn=answers, seed=21)
    report = driver.run(max_steps=500)
    return platform, (translation, journalism, surveillance), report


class TestConcurrentProjects:
    def test_everything_quiesces(self, deployment):
        _, _, report = deployment
        assert report.quiescent

    def test_all_projects_complete(self, deployment):
        platform, (translation, journalism, surveillance), _ = deployment
        assert len(platform.processor(translation.id).facts("translated")) == 2
        assert len(platform.processor(journalism.id).facts("published")) == 1
        assert len(platform.processor(surveillance.id).facts("dossier")) == 2

    def test_projects_isolated_in_cylog(self, deployment):
        platform, (translation, journalism, _), _ = deployment
        # journalism facts never leak into the translation processor
        assert not platform.processor(translation.id).facts("published")
        assert not platform.processor(journalism.id).facts("translated")

    def test_shared_pool_partitioned_by_project(self, deployment):
        platform, projects, _ = deployment
        for project in projects:
            project_tasks = [
                t for t in platform.pool.all() if t.project_id == project.id
            ]
            assert project_tasks, project.name
            assert all(t.status.value == "completed" for t in project_tasks
                       if t.parent_task_id is None
                       and t.status.value != "expired")

    def test_workers_served_multiple_projects(self, deployment):
        platform, _, _ = deployment
        projects_per_worker: dict[str, set[str]] = {}
        for task in platform.pool.all():
            if task.assignee and task.kind is not TaskKind.JOINT:
                projects_per_worker.setdefault(task.assignee, set()).add(
                    task.project_id
                )
        assert any(len(p) >= 2 for p in projects_per_worker.values())

    def test_event_trail_is_complete(self, deployment):
        platform, _, report = deployment
        assert platform.events.count("task.completed") == report.team_results
        assert platform.events.count("team.proposed") >= report.team_results

    def test_affinity_learning_occurred(self, deployment):
        platform, _, report = deployment
        assert report.team_results > 0
        assert len(platform.affinity) > 0

    def test_platform_state_survives_persistence(self, deployment, tmp_path):
        # Last in the module: attaching a backend is permanent, and the
        # shared deployment's database is closed afterwards.
        platform, _, _ = deployment
        state = dump_canonical(platform.db)
        platform.db.attach_backend(WalBackend(tmp_path / "wal"))  # adopt
        platform.db.close()
        restored = open_database(tmp_path / "wal", backend="wal")
        assert dump_canonical(restored) == state
        restored.close()
