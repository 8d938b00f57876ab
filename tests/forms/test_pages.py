"""The three figure pages: admin (3), worker (4), task UI / joint (5)."""

import math

import pytest

from repro.core import Crowd4U, HumanFactors, SkillRequirement, TeamConstraints
from repro.core.projects import SchemeKind
from repro.core.tasks import TaskKind
from repro.errors import FormError
from repro.forms import (
    build_constraint_form,
    parse_constraint_form,
    render_admin_page,
    render_task_ui,
    render_worker_page,
)
from repro.forms.render import render_table
from repro.forms.worker_page import parse_factors_form
from repro.storage import col


@pytest.fixture
def platform():
    crowd = Crowd4U(seed=2)
    for i in range(4):
        crowd.register_worker(
            f"w{i}",
            HumanFactors(
                native_languages=frozenset({"en"}),
                languages={"fr": 0.7},
                region="tsukuba",
                skills={"reporting": 0.8},
                reliability=0.9,
                sns_id=f"w{i}@sns",
            ),
        )
    return crowd


@pytest.fixture
def project(platform):
    return platform.register_project(
        "news", "req",
        "open report(topic: text, article: text) key (topic).\n"
        'topic("rain"). published(T, A) :- topic(T), report(T, A).',
        scheme=SchemeKind.SIMULTANEOUS,
        constraints=TeamConstraints(
            min_size=2, critical_mass=3,
            skills=(SkillRequirement("reporting", 0.5),),
            required_languages=frozenset({"fr"}),
        ),
    )


class TestConstraintForm:
    def test_form_prefilled_from_constraints(self, project):
        form = build_constraint_form(project.constraints)
        defaults = form.defaults()
        assert defaults["min_size"] == 2
        assert defaults["critical_mass"] == 3
        assert defaults["skills"] == "reporting:0.5:max"
        assert defaults["required_languages"] == "fr"

    def test_round_trip_via_submission(self, project):
        form = build_constraint_form(project.constraints)
        submission = {k: v for k, v in form.defaults().items() if v is not None}
        parsed = parse_constraint_form(submission)
        assert parsed.min_size == 2
        assert parsed.skills == project.constraints.skills
        assert parsed.required_languages == frozenset({"fr"})
        assert parsed.cost_budget == math.inf

    def test_bad_submission_reports_fields(self):
        with pytest.raises(FormError, match="min_size"):
            parse_constraint_form({"min_size": "zero", "critical_mass": 3})

    def test_bad_skill_entry(self):
        with pytest.raises(FormError, match="skill entry"):
            parse_constraint_form(
                {"min_size": 1, "critical_mass": 2, "skills": "nocolon"}
            )


class TestAdminPage:
    def test_contains_form_suggestions_tasks_source(self, platform, project):
        platform.step()
        html = render_admin_page(platform, project.id)
        assert "Desired human factors" in html
        assert "task000000" in html
        assert "open report" in html
        assert "No suggestions" in html

    def test_shows_suggestions_when_infeasible(self, platform):
        project = platform.register_project(
            "hard", "req",
            'open f(k: text, v: text) key (k).\nseed("x").\n'
            "out(K, V) :- seed(K), f(K, V).",
            constraints=TeamConstraints(
                min_size=2, critical_mass=2,
                skills=(SkillRequirement("alchemy", 0.99),),
            ),
        )
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        for worker_id in platform.ledger.eligible_workers(task.id)[:2]:
            platform.declare_interest(worker_id, task.id)
        platform.step()
        html = render_admin_page(platform, project.id)
        assert "Suggestions" in html and "alchemy" in html


class TestWorkerPage:
    def test_shows_factors_and_eligible_tasks(self, platform, project):
        platform.step()
        html = render_worker_page(platform, "w00000")
        assert "Worker page" in html
        assert "skill:reporting" in html
        assert "task000000" in html  # eligible task listed

    def test_render_reports_cache_stats(self, platform, project):
        from repro.storage.cache import CacheStats

        platform.step()
        stats = CacheStats()
        render_worker_page(platform, "w00000", cache_stats=stats)
        assert stats.fetches > 0
        assert stats.hits == 0, "cold render must be all misses"
        warm = CacheStats()
        html = render_worker_page(platform, "w00000", cache_stats=warm)
        assert warm.hits > 0 and warm.misses == 0
        assert html == render_worker_page(platform, "w00000")
        # The caller-supplied block is an attribution slice, not a
        # replacement: the database-wide totals keep counting too.
        assert platform.db.query_cache.stats.hits >= warm.hits

    def test_render_without_stats_unchanged(self, platform, project):
        platform.step()
        assert "Worker page" in render_worker_page(platform, "w00000")

    def test_factors_form_round_trip(self, platform):
        worker = platform.workers.get("w00000")
        updated = parse_factors_form(
            {
                "native_languages": "ja",
                "languages": "en:0.9; de:0.3",
                "region": "tokyo",
                "sns_id": "new@sns",
            },
            worker.factors,
        )
        assert updated.native_languages == frozenset({"ja"})
        assert updated.languages["de"] == 0.3
        assert updated.region == "tokyo"
        assert updated.sns_id == "new@sns"


class TestTaskUI:
    def test_open_fill_ui_has_answer_fields(self, platform, project):
        platform.step()
        task = platform.pool.pending_root_tasks(project.id)[0]
        html = render_task_ui(platform, task.id, "w00000")
        assert "article" in html  # the fill column becomes a field

    def test_review_ui_shows_previous_text(self, platform, project):
        root = platform.pool.pending_root_tasks(project.id)[0]
        micro = platform.pool.create(
            project.id, TaskKind.REVIEW, "check it",
            assignee="w00000", parent_task_id=root.id,
            payload={"previous_text": "draft to check"},
        )
        html = render_task_ui(platform, micro.id, "w00000")
        assert "draft to check" in html
        assert "improved version" in html

    def test_joint_ui_reproduces_figure5(self, platform, project):
        html, _, team = _joint_ui(platform, project)
        assert "Simultaneous collaboration" in html
        assert f"{team.members[0]}@sns" in html       # SNS roster
        assert "my paragraph" in html                  # live shared document
        assert "Submit for the team" in html           # single submission

    def test_joint_ui_tally_matches_a_grouped_ledger_query(self, platform, project):
        """The relationship tally comes from per-status index probes; it
        must render exactly what grouping the task's ledger rows by status
        rendered (statuses nobody holds left out, ordered by status)."""
        _, joint, team = _joint_ui(platform, project)
        bystander = next(
            w for w in platform.ledger.eligible_workers(joint.parent_task_id)
            if w not in team.members
        )
        platform.ledger.decline(bystander, joint.parent_task_id)
        html = render_task_ui(platform, joint.id, team.members[0])
        grouped = (
            platform.db.query("relationship")
            .where(col("task_id") == joint.parent_task_id)
            .group_by("status")
            .aggregate(workers=("count", None))
            .order_by("status")
            .execute()
        )
        assert [row["status"] for row in grouped][:2] == ["declined", "eligible"]
        expected = render_table(
            ("relationship", "workers"),
            [(row["status"], row["workers"]) for row in grouped],
        )
        assert f"<h3>Task relationships</h3>{expected}</section>" in html


def _joint_ui(platform, project):
    """Form a team for the project's first task, collect SNS ids, contribute
    once; return the JOINT task's UI as its first member sees it."""
    platform.step()
    task = platform.pool.pending_root_tasks(project.id)[0]
    for worker_id in platform.ledger.eligible_workers(task.id)[:2]:
        platform.declare_interest(worker_id, task.id)
    platform.step()
    team = platform.teams.get(platform.pool.get(task.id).team_id)
    for member in team.members:
        platform.confirm_membership(member, task.id)
    for member in team.members:
        for micro in platform.tasks_for_worker(member):
            platform.submit_micro_result(
                micro.id, member, {"sns_id": f"{member}@sns"}
            )
    platform.contribute(task.id, team.members[0], "my paragraph")
    joint = [
        t for t in platform.tasks_for_worker(team.members[0])
        if t.kind is TaskKind.JOINT
    ][0]
    return render_task_ui(platform, joint.id, team.members[0]), joint, team
