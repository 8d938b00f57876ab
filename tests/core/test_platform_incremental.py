"""The incremental platform round: dirty tracking, revocation, staleness.

The differential staleness tests are the satellite requirement: a worker
whose human factors change mid-run must appear in / disappear from
``eligible_tasks`` on the next ``step()`` under *both* the incremental and
the full-recompute paths.
"""

from __future__ import annotations

import pytest

from repro.core import Crowd4U, HumanFactors, TeamConstraints
from repro.core.relationships import RelationshipStatus
from repro.errors import PlatformError

#: A constraint-screen project: no ``eligible`` rule, so per-worker
#: eligibility follows TeamConstraints.member_eligible (languages/region).
SCREEN_SOURCE = """
    open caption(img: text, out: text) key (img) asking "Caption {img}".
    image("i1"). image("i2").
    captioned(I, C) :- image(I), caption(I, C).
"""

#: A CyLog-eligibility project: the rule derives Eligible from facts.
CYLOG_SOURCE = """
    open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
    segment("s1").
    eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
    translated(S, T) :- segment(S), translate(S, T).
"""

#: Two segments, so a project has a second task to wait or compare on.
TWO_SEGMENTS = CYLOG_SOURCE.replace('segment("s1").', 'segment("s1"). segment("s2").')

FR = HumanFactors(languages={"fr": 0.9}, region="paris", skills={"translation": 0.8})
NO_FR = HumanFactors(languages={"fr": 0.1}, region="paris", skills={"translation": 0.8})


def _screen_platform(incremental: bool = True) -> tuple[Crowd4U, str]:
    platform = Crowd4U(seed=5)
    fluent = platform.register_worker("fluent", FR)
    platform.register_worker("silent", NO_FR)
    platform.register_project(
        "captions", "req", SCREEN_SOURCE,
        constraints=TeamConstraints(
            min_size=2, required_languages=frozenset({"fr"}),
            language_proficiency=0.5,
        ),
    )
    platform.step(full=not incremental)
    return platform, fluent.id


def _projects(platform: Crowd4U, min_sizes) -> list[str]:
    """One two-segment CyLog-eligibility project per team size."""
    return [
        platform.register_project(
            f"p{size}", "req", TWO_SEGMENTS,
            constraints=TeamConstraints(min_size=size, critical_mass=size),
        ).id
        for size in min_sizes
    ]


def _segment_tasks(platform: Crowd4U, project_id: str) -> list[str]:
    return [
        t.id for t in platform.pool.pending_root_tasks(project_id)
        if t.predicate == "translate"
    ]


def _finish(platform: Crowd4U, task_id: str, members, **mode) -> None:
    """Confirm the proposed team for ``task_id`` and submit its micro-tasks
    until the collaboration records its result; ``mode`` goes to ``step``."""
    from repro.core.tasks import TaskStatus

    team = platform.teams.get(platform.pool.get(task_id).team_id)
    assert set(team.members) == set(members)
    for worker in members:
        platform.confirm_membership(worker, task_id)
    platform.step(**mode)
    result = {"text": "fr", "quality": 1.0}
    while platform.pool.get(task_id).status is not TaskStatus.COMPLETED:
        worker, micro = next(
            (w, t) for w in members for t in platform.tasks_for_worker(w)
        )
        platform.submit_micro_result(micro.id, worker, result)


def _armed(platform: Crowd4U) -> set[str]:
    """The pending root tasks the next round will attempt."""
    return {
        t.id for t in platform.pool.pending_root_tasks()
        if platform.controller.is_dirty(t.id)
    }


class TestEligibilityStaleness:
    @pytest.mark.parametrize("incremental", (True, False), ids=("incremental", "full"))
    def test_factors_change_disappears_next_step(self, incremental):
        """Losing the screened factor removes the worker's pending tasks on
        the next round — identically on both paths."""
        platform, fluent = _screen_platform(incremental)
        assert len(platform.eligible_tasks(fluent)) == 2
        platform.update_worker_factors(fluent, NO_FR)
        # Stale until the next platform round...
        platform.step(full=not incremental, cross_check=incremental)
        assert platform.eligible_tasks(fluent) == []
        assert platform.stats.eligibility_revoked >= 2

    @pytest.mark.parametrize("incremental", (True, False), ids=("incremental", "full"))
    def test_factors_change_appears_next_step(self, incremental):
        platform, _ = _screen_platform(incremental)
        silent = platform.workers.ids()[1]
        assert platform.eligible_tasks(silent) == []
        platform.update_worker_factors(silent, FR)
        platform.step(full=not incremental, cross_check=incremental)
        assert len(platform.eligible_tasks(silent)) == 2

    def test_incremental_and_full_agree_on_staleness(self):
        """Differential form: drive the same mid-run factor flip through
        both paths and compare the resulting eligible sets."""
        outcomes = {}
        for incremental in (True, False):
            platform, fluent = _screen_platform(incremental)
            platform.update_worker_factors(fluent, NO_FR)
            silent = platform.workers.ids()[1]
            platform.update_worker_factors(silent, FR)
            platform.step(full=not incremental, cross_check=incremental)
            outcomes[incremental] = {
                worker: sorted(t.id for t in platform.eligible_tasks(worker))
                for worker in platform.workers.ids()
            }
        assert outcomes[True] == outcomes[False]

    def test_interest_survives_factor_loss(self):
        """Revocation only retracts system-derived *Eligible* rows; a
        worker-declared interest is never silently dropped."""
        platform, fluent = _screen_platform()
        task = platform.eligible_tasks(fluent)[0]
        platform.declare_interest(fluent, task.id)
        platform.update_worker_factors(fluent, NO_FR)
        platform.step()
        assert (
            platform.ledger.status(fluent, task.id) is RelationshipStatus.INTERESTED
        )

    def test_nonmonotone_rule_with_constant_cardinality(self):
        """Regression: with negation the eligible relation can swap members
        at constant size (one batch bans the only eligible worker while
        qualifying another).  The engine-reported deltas must carry both
        the revocation and the new eligibility through the round."""
        source = """
            open translate(seg: text, out: text) key (seg) asking "T {seg}".
            segment("s1").
            banned(W) :- flag(W, F), F >= 1.
            eligible(W) :- worker_language(W, "fr", P), P >= 0.5, not banned(W).
            translated(S, T) :- segment(S), translate(S, T).
        """
        platform = Crowd4U(seed=5)
        alice = platform.register_worker("alice", FR)
        bob = platform.register_worker("bob", NO_FR)
        project = platform.register_project("subs", "req", source)
        platform.step(cross_check=True)
        assert [t.id for t in platform.eligible_tasks(alice.id)]
        assert platform.eligible_tasks(bob.id) == []
        # Same-size swap: alice becomes banned, bob becomes fluent.
        platform.processor(project.id).add_facts("flag", [(alice.id, 1)])
        platform.update_worker_factors(bob.id, FR)
        platform.step(cross_check=True)
        assert platform.eligible_tasks(alice.id) == []
        assert [t.id for t in platform.eligible_tasks(bob.id)]

    def test_cylog_path_additive_facts_keep_eligibility(self):
        """On the CyLog path fact stores are additive, so a factor edit can
        only extend eligibility — the derived Eligible set never shrinks."""
        platform = Crowd4U(seed=5)
        worker = platform.register_worker("w", FR)
        platform.register_project("subs", "req", CYLOG_SOURCE)
        platform.step()
        assert len(platform.eligible_tasks(worker.id)) == 1
        platform.update_worker_factors(worker.id, NO_FR)
        platform.step(cross_check=True)
        assert len(platform.eligible_tasks(worker.id)) == 1


class TestIncrementalBookkeeping:
    def test_quiet_rounds_skip_everything(self):
        platform, _ = _screen_platform()
        platform.step()
        before = platform.stats.as_dict()
        platform.step()
        after = platform.stats.as_dict()
        assert after["eligibility_tasks_skipped"] == before["eligibility_tasks_skipped"] + 2
        assert after["eligibility_pairs_checked"] == before["eligibility_pairs_checked"]
        assert after["assignments_skipped"] == before["assignments_skipped"] + 2

    def test_full_escape_hatch_recomputes(self):
        platform, _ = _screen_platform()
        before = platform.stats.eligibility_tasks_full
        platform.step(full=True)
        assert platform.stats.eligibility_tasks_full == before + 2

    def test_constraint_update_forces_full_rederivation(self):
        platform, fluent = _screen_platform()
        platform.update_constraints(
            platform.projects.active()[0].id,
            TeamConstraints(min_size=2, required_languages=frozenset({"de"})),
        )
        platform.step(cross_check=True)
        assert platform.eligible_tasks(fluent) == []

    def test_one_member_result_rearms_nothing(self):
        """A one-member team's result reinforces no affinity pair, so no
        formation problem changes: not even a pending task where the
        member is INTERESTED is re-attempted."""
        platform = Crowd4U(seed=9)
        solo = platform.register_worker("solo", FR).id
        solo_project, waiting_project = _projects(platform, (1, 2))
        platform.step()
        done, _ = _segment_tasks(platform, solo_project)
        waiting, _ = _segment_tasks(platform, waiting_project)
        platform.declare_interest(solo, done)
        platform.declare_interest(solo, waiting)  # below min_size: waits
        platform.step()
        _finish(platform, done, (solo,))
        assert platform.ledger.status(solo, waiting) is RelationshipStatus.INTERESTED
        assert _armed(platform) == set()
        attempts = platform.stats.assignment_attempts
        platform.step(cross_check=True)
        assert platform.stats.assignment_attempts == attempts

    def test_team_result_rearms_tasks_where_a_member_is_interested(self):
        """A two-member team's result changes the affinity of its own pair
        only: exactly the pending tasks where a member is INTERESTED are
        re-attempted, and a task only outsiders are interested in is not."""
        platform = Crowd4U(seed=9)
        a, b, c = (platform.register_worker(n, FR).id for n in "abc")
        pair_project, waiting_project = _projects(platform, (2, 3))
        platform.step()
        done, pending_other = _segment_tasks(platform, pair_project)
        shared, outsider = _segment_tasks(platform, waiting_project)
        for worker, task in (
            (a, done), (b, done), (a, shared), (c, outsider), (c, pending_other),
        ):
            platform.declare_interest(worker, task)
        platform.step()
        _finish(platform, done, (a, b))
        assert _armed(platform) == {shared}
        attempts = platform.stats.assignment_attempts
        platform.step(cross_check=True)
        assert platform.stats.assignment_attempts == attempts + 1

    def test_reinforced_affinity_reaches_a_waiting_task_as_in_full_rounds(self):
        """Differential: greedy growth misses the only feasible pair of a
        task until a finished collaboration raises that pair's affinity.
        The incremental round must re-attempt the task and propose the
        same team as the full round, which attempts everything."""
        from repro.core import SkillRequirement
        from repro.storage import dump_canonical

        def factors(skill):
            return HumanFactors(languages={"fr": 0.9}, skills={skill: 0.9})

        dumps = []
        for mode in ({"cross_check": True}, {"full": True}):
            platform = Crowd4U(seed=9)
            a, b, c = (
                platform.register_worker(name, factors(skill)).id
                for name, skill in (("a", "translation"), ("b", "none"),
                                    ("c", "review"))
            )
            # {a, c} is the one feasible pair; greedy seeds grow {a, b},
            # {b, a} and {c, b} while b is each seed's closest neighbour.
            for x, y, value in ((a, b, 0.2), (b, c, 0.2), (a, c, 0.1)):
                platform.affinity.set(x, y, value)
            project = platform.register_project(
                "pair", "req", TWO_SEGMENTS,
                constraints=TeamConstraints(
                    min_size=2, critical_mass=2,
                    skills=(SkillRequirement("translation", 0.8),
                            SkillRequirement("review", 0.8)),
                ),
            ).id
            platform.step(**mode)
            first, waiting = _segment_tasks(platform, project)
            for worker, task in ((a, first), (c, first), (a, waiting),
                                 (b, waiting), (c, waiting)):
                platform.declare_interest(worker, task)
            platform.step(**mode)
            assert platform.pool.get(waiting).team_id is None
            _finish(platform, first, (a, c), **mode)
            platform.step(**mode)
            team = platform.teams.get(platform.pool.get(waiting).team_id)
            assert set(team.members) == {a, c}
            dumps.append(dump_canonical(platform.db))
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("n_pending", (10, 200))
    def test_quiet_round_attempts_nothing_at_any_pool_size(self, n_pending):
        """Work counter: after a team's result, the next rounds attempt no
        assignment however many tasks wait in the pool."""
        platform = Crowd4U(seed=9)
        a, b = (platform.register_worker(n, FR).id for n in "ab")
        (project,) = _projects(platform, (2,))
        for i in range(n_pending):
            platform.post_task(project, f"custom {i}")
        platform.step()
        done, _ = _segment_tasks(platform, project)
        platform.declare_interest(a, done)
        platform.declare_interest(b, done)
        platform.step()
        _finish(platform, done, (a, b))
        assert len(platform.pool.pending_root_tasks()) == n_pending + 1
        attempts = platform.stats.assignment_attempts
        for _ in range(2):
            platform.step(cross_check=True)
            assert platform.stats.assignment_attempts == attempts

    def test_cross_check_detects_tampering(self):
        """The oracle actually fires: corrupt the ledger behind the
        incremental bookkeeping's back and cross_check must raise."""
        platform, fluent = _screen_platform()
        task = platform.eligible_tasks(fluent)[0]
        platform.ledger.revoke_eligibility(fluent, task.id)
        with pytest.raises(PlatformError, match="diverged"):
            platform.step(cross_check=True)

    def test_collect_stats_feeds_collector(self):
        from repro.metrics import Collector

        platform, _ = _screen_platform()
        platform.eligible_tasks(platform.workers.ids()[0])
        collector = Collector()
        platform.collect_stats(collector)
        summary = collector.summary()
        assert summary["platform.rounds"] >= 1
        assert any(key.startswith("query_cache.") for key in summary)
