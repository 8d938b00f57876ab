"""Team registry: proposal, confirmation, dissolution bookkeeping."""

import pytest

from repro.core.teams import TeamRegistry, TeamStatus
from repro.errors import PlatformError


@pytest.fixture
def registry(db):
    return TeamRegistry(db)


def _propose(registry, members=("a", "b"), task="t1", **kwargs):
    base = dict(
        task_id=task,
        members=tuple(members),
        affinity_score=0.8,
        algorithm="greedy",
        proposed_at=1.0,
        confirm_by=10.0,
    )
    base.update(kwargs)
    return registry.propose(**base)


class TestProposal:
    def test_empty_team_rejected(self, registry):
        with pytest.raises(PlatformError):
            _propose(registry, members=())

    def test_persisted(self, registry, db):
        team = _propose(registry)
        row = db.table("team").get((team.id,))
        assert row["members"] == ["a", "b"]
        assert row["status"] == "proposed"

    def test_confirmations_accumulate(self, registry):
        team = _propose(registry)
        team = registry.confirm_member(team.id, "a")
        assert team.status is TeamStatus.PROPOSED
        team = registry.confirm_member(team.id, "b")
        assert team.status is TeamStatus.CONFIRMED
        assert team.all_confirmed

    def test_non_member_confirmation_rejected(self, registry):
        team = _propose(registry)
        with pytest.raises(PlatformError, match="not a member"):
            registry.confirm_member(team.id, "zzz")

    def test_unknown_team(self, registry):
        with pytest.raises(PlatformError, match="unknown team"):
            registry.get("nope")


class TestQueries:
    def test_for_task(self, registry):
        _propose(registry, task="t1")
        _propose(registry, task="t2")
        assert len(registry.for_task("t1")) == 1

    def test_dissolved_member_sets(self, registry):
        team_a = _propose(registry, members=("a", "b"))
        team_b = _propose(registry, members=("c", "d"))
        registry.set_status(team_a.id, TeamStatus.DISSOLVED)
        assert registry.previously_dissolved_members("t1") == {
            frozenset({"a", "b"})
        }
        registry.set_status(team_b.id, TeamStatus.DISSOLVED)
        assert len(registry.previously_dissolved_members("t1")) == 2

    def test_rehydration(self, db):
        registry = TeamRegistry(db)
        team = _propose(registry)
        registry.confirm_member(team.id, "a")
        fresh = TeamRegistry(db)
        loaded = fresh.get(team.id)
        assert loaded.confirmed == frozenset({"a"})
        assert loaded.confirm_by == 10.0


class TestBuckets:
    def _check(self, registry):
        for status in TeamStatus:
            assert registry.by_status(status) == [
                t for t in registry.all() if t.status is status
            ]
        for task_id in ("t1", "t2", "t3"):
            assert registry.for_task(task_id) == [
                t for t in registry.all() if t.task_id == task_id
            ]

    def test_queries_follow_status_moves_and_reopen(self, registry, db):
        """Buckets move a team on every status change and are rebuilt from
        the table; answers stay sorted by id even when a team returns to a
        bucket after later teams joined it."""
        first = _propose(registry, task="t1")
        second = _propose(registry, members=("c",), task="t2")
        _propose(registry, task="t1")
        registry.confirm_member(first.id, "a")
        registry.confirm_member(first.id, "b")
        registry.set_status(second.id, TeamStatus.DISSOLVED)
        registry.set_status(first.id, TeamStatus.FINISHED)
        registry.set_status(second.id, TeamStatus.PROPOSED)
        self._check(registry)
        assert [t.id for t in registry.by_status(TeamStatus.PROPOSED)][0] == (
            second.id
        )
        self._check(TeamRegistry(db))

    def test_deadline_sweep_reads_only_proposed_teams(self, db):
        """Work bound: with 200 finished teams and one proposed team, the
        monitor's sweep is handed one team, not the whole history."""
        from repro.core.events import EventBus
        from repro.core.monitor import CollaborationMonitor
        from repro.core.tasks import TaskPool

        registry = TeamRegistry(db)
        for i in range(200):
            team = _propose(registry, task=f"done{i}")
            registry.set_status(team.id, TeamStatus.FINISHED)
        waiting = _propose(registry, task="t1")

        class CountingTeams:
            """Counts every team a registry query hands its caller."""

            def __init__(self):
                self.handed = 0

            def __getattr__(self, name):
                query = getattr(registry, name)

                def counted(*args, **kwargs):
                    teams = query(*args, **kwargs)
                    self.handed += len(teams)
                    return teams

                return counted

        class Controller:
            def __init__(self):
                self.checked = []

            def check_confirmation_deadline(self, team_id, now):
                self.checked.append(team_id)
                return None

        teams, controller = CountingTeams(), Controller()
        CollaborationMonitor(TaskPool(db), teams, controller, EventBus()).tick(0.0)
        assert controller.checked == [waiting.id]
        assert teams.handed == 1
