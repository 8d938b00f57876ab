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

    def test_result_recording_rearms_pending_tasks(self):
        """Recording a team result reinforces the affinity matrix — an
        input to team scoring — so every pending root task must be
        re-attempted on the next incremental round."""
        from repro.core import TeamConstraints
        from repro.core.tasks import TaskStatus

        platform = Crowd4U(seed=9)
        worker = platform.register_worker("solo", FR)
        source = CYLOG_SOURCE.replace('segment("s1").', 'segment("s1"). segment("s2").')
        platform.register_project(
            "subs", "req", source,
            constraints=TeamConstraints(min_size=1, critical_mass=1),
        )
        platform.step()
        first, second = platform.eligible_tasks(worker.id)
        platform.declare_interest(worker.id, first.id)
        platform.step()  # team proposed for first; second attempted, waiting
        platform.confirm_membership(worker.id, first.id)
        platform.step()
        skipped_before = platform.stats.assignments_skipped
        platform.step()  # nothing changed: second is skipped
        assert platform.stats.assignments_skipped == skipped_before + 1
        for task in platform.tasks_for_worker(worker.id):
            platform.submit_micro_result(
                task.id, worker.id, {"text": "fr", "quality": 0.9}
            )
        assert platform.pool.get(first.id).status is TaskStatus.COMPLETED
        attempts_before = platform.stats.assignment_attempts
        platform.step(cross_check=True)  # re-armed by the recorded result
        assert platform.stats.assignment_attempts == attempts_before + 1

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
