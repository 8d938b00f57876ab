"""Platform facade integration tests: the full Figure-2 loop."""

import pytest

from repro.core import Crowd4U, HumanFactors, SkillRequirement, TeamConstraints
from repro.core.projects import SchemeKind
from repro.core.relationships import RelationshipStatus
from repro.core.tasks import TaskKind, TaskStatus
from repro.errors import PlatformError

SOURCE = """
    open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
    segment("s1"). segment("s2").
    eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
    translated(S, T) :- segment(S), translate(S, T).
"""


@pytest.fixture
def platform():
    crowd = Crowd4U(seed=11)
    for i in range(6):
        crowd.register_worker(
            f"worker{i}",
            HumanFactors(
                native_languages=frozenset({"en"}),
                languages={"fr": 0.8 if i < 4 else 0.2},
                region="tsukuba" if i % 2 == 0 else "paris",
                skills={"translation": 0.9 - 0.1 * i},
                reliability=0.95,
            ),
        )
    return crowd


@pytest.fixture
def project(platform):
    return platform.register_project(
        "subs", "req", SOURCE,
        scheme=SchemeKind.SEQUENTIAL,
        constraints=TeamConstraints(
            min_size=2, critical_mass=3,
            skills=(SkillRequirement("translation", 0.5),),
        ),
    )


def run_chain(platform):
    """Complete every addressed micro-task until none remain."""
    for _ in range(40):
        micro = [
            t for w in platform.workers.ids()
            for t in platform.tasks_for_worker(w)
        ]
        if not micro:
            return
        for task in micro:
            platform.submit_micro_result(
                task.id, task.assignee,
                {"text": f"{task.payload.get('previous_text', '')}+{task.assignee}",
                 "quality": 0.8},
            )


class TestTaskGeneration:
    def test_cylog_generates_tasks(self, platform, project):
        platform.step()
        tasks = platform.pool.pending_root_tasks(project.id)
        assert {t.key_values for t in tasks} == {("s1",), ("s2",)}
        assert all(t.kind is TaskKind.OPEN_FILL for t in tasks)
        assert platform.events.count("task.generated") == 2

    def test_eligibility_from_cylog_rule(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        eligible = platform.ledger.eligible_workers(task.id)
        # rule: fr proficiency >= 0.5 → workers 0..3 only
        assert eligible == ["w00000", "w00001", "w00002", "w00003"]

    def test_eligible_tasks_on_user_page(self, platform, project):
        platform.step()
        assert len(platform.eligible_tasks("w00000")) == 2
        assert platform.eligible_tasks("w00005") == []

    def test_late_worker_becomes_eligible(self, platform, project):
        platform.step()
        newcomer = platform.register_worker(
            "late", HumanFactors(languages={"fr": 0.9},
                                 skills={"translation": 0.9}),
        )
        platform.step()  # eligibility recomputed for pending tasks
        task = platform.pool.pending_root_tasks(project.id)[0]
        assert newcomer.id in platform.ledger.eligible_workers(task.id)


class TestDemandRevocation:
    """Retraction-aware demand maintenance: when the fixpoint stops
    demanding an open key, the task it materialised is cancelled."""

    def test_retracted_demand_cancels_pending_task(self, platform, project):
        platform.step()
        tasks = platform.pool.pending_root_tasks(project.id)
        assert {t.key_values for t in tasks} == {("s1",), ("s2",)}
        doomed = next(t for t in tasks if t.key_values == ("s2",))
        platform.processor(project.id).retract_facts("segment", [("s2",)])
        assert platform.pool.get(doomed.id).status is TaskStatus.CANCELLED
        assert {
            t.key_values for t in platform.pool.pending_root_tasks(project.id)
        } == {("s1",)}
        assert platform.events.count("task.cancelled") == 1
        # Cancelled tasks leave the assignment round entirely.
        assert not platform.controller.is_dirty(doomed.id)

    def test_resurrected_demand_gets_a_fresh_task(self, platform, project):
        platform.step()
        processor = platform.processor(project.id)
        processor.retract_facts("segment", [("s2",)])
        processor.add_facts("segment", [("s2",)])
        processor.run()
        live = [
            t for t in platform.pool.pending_root_tasks(project.id)
            if t.key_values == ("s2",)
        ]
        assert len(live) == 1
        assert platform.events.count("task.generated") == 3
        assert platform.events.count("task.cancelled") == 1


class TestAssignmentLoop:
    def test_interest_then_team_then_active(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        for worker_id in platform.ledger.eligible_workers(task.id)[:3]:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        reloaded = platform.pool.get(task.id)
        assert reloaded.status is TaskStatus.PROPOSED
        team = platform.teams.get(reloaded.team_id)
        for member in team.members:
            platform.confirm_membership(member, task.id)
        assert platform.pool.get(task.id).status is TaskStatus.ACTIVE

    def test_interest_requires_eligibility(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        from repro.errors import RelationshipError

        with pytest.raises(RelationshipError):
            platform.declare_interest("w00005", task.id)  # fr too weak

    def test_full_collaboration_produces_facts(self, platform, project):
        platform.step()
        for task in platform.pool.pending_root_tasks(project.id):
            for worker_id in platform.ledger.eligible_workers(task.id)[:3]:
                platform.declare_interest(worker_id, task.id)
        platform.step()
        for task in platform.pool.by_status(TaskStatus.PROPOSED):
            team = platform.teams.get(task.team_id)
            for member in team.members:
                platform.confirm_membership(member, task.id)
        run_chain(platform)
        processor = platform.processor(project.id)
        assert processor.facts("translated")
        assert not platform.pool.open_tasks()
        results = platform.results_for(project.id)
        assert len(results) == 2
        assert all(r["team_id"] for r in results)

    def test_affinity_reinforced_after_completion(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        members = platform.ledger.eligible_workers(task.id)[:2]
        for worker_id in members:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        reloaded = platform.pool.get(task.id)
        team = platform.teams.get(reloaded.team_id)
        before = platform.affinity.get(*team.members[:2])
        for member in team.members:
            platform.confirm_membership(member, task.id)
        run_chain(platform)
        after = platform.affinity.get(*team.members[:2])
        assert after != before  # reinforcement moved the pair

    def test_relationships_completed(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        for worker_id in platform.ledger.eligible_workers(task.id)[:2]:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        team = platform.teams.get(platform.pool.get(task.id).team_id)
        for member in team.members:
            platform.confirm_membership(member, task.id)
        run_chain(platform)
        for member in team.members:
            assert (
                platform.ledger.status(member, task.id)
                is RelationshipStatus.COMPLETED
            )


class TestGuards:
    def test_submit_by_wrong_worker_rejected(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        for worker_id in platform.ledger.eligible_workers(task.id)[:2]:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        team = platform.teams.get(platform.pool.get(task.id).team_id)
        for member in team.members:
            platform.confirm_membership(member, task.id)
        micro = platform.tasks_for_worker(team.members[0])
        if not micro:  # chain starts with the other member
            micro = platform.tasks_for_worker(team.members[1])
        stranger = "w00005"
        with pytest.raises(PlatformError, match="addressed"):
            platform.submit_micro_result(micro[0].id, stranger, {"text": "hi"})

    def test_confirm_without_team_rejected(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        with pytest.raises(PlatformError, match="no proposed team"):
            platform.confirm_membership("w00000", task.id)

    def test_unknown_processor(self, platform):
        with pytest.raises(PlatformError):
            platform.processor("projXXXX")

    def test_recruitment_deadline_expires_task(self, platform):
        project = platform.register_project(
            "stale", "req", 'open f(k: text, v: text) key (k).\nseed("x").\n'
            "out(K, V) :- seed(K), f(K, V).",
            constraints=TeamConstraints(
                min_size=2, critical_mass=3, recruitment_deadline=2.0,
            ),
        )
        platform.step()  # generates the task; nobody declares interest
        platform.step()
        platform.step()
        platform.step()
        expired = platform.pool.by_status(TaskStatus.EXPIRED, project.id)
        assert len(expired) == 1
        assert platform.events.count("task.expired") == 1

    def test_snapshot_shape(self, platform, project):
        platform.step()
        snapshot = platform.snapshot()
        assert snapshot["workers"] == 6
        assert snapshot["projects"] == 1
        assert "pending" in snapshot["tasks"]


class TestSimultaneousOnPlatform:
    def test_joint_flow_via_public_api(self, platform):
        project = platform.register_project(
            "news", "req",
            "open report(topic: text, article: text) key (topic).\n"
            'topic("rain").\npublished(T, A) :- topic(T), report(T, A).',
            scheme=SchemeKind.SIMULTANEOUS,
            constraints=TeamConstraints(min_size=2, critical_mass=2),
        )
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        for worker_id in platform.ledger.eligible_workers(task.id)[:2]:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        team = platform.teams.get(platform.pool.get(task.id).team_id)
        for member in team.members:
            platform.confirm_membership(member, task.id)
        # stage 1: SNS solicitation
        for member in team.members:
            for micro in platform.tasks_for_worker(member):
                platform.submit_micro_result(
                    micro.id, member, {"sns_id": f"{member}@sns"}
                )
        # stage 2: the joint task is addressed to everyone
        joint = [
            t for t in platform.tasks_for_worker(team.members[0])
            if t.kind is TaskKind.JOINT
        ]
        assert len(joint) == 1
        platform.contribute(task.id, team.members[0], "intro paragraph")
        platform.contribute(task.id, team.members[1], "details paragraph")
        platform.submit_micro_result(
            joint[0].id, team.members[0], {"quality": 0.9}
        )
        processor = platform.processor(project.id)
        published = processor.sorted_facts("published")
        assert len(published) == 1
        assert "intro paragraph" in published[0][1]
        assert "details paragraph" in published[0][1]
