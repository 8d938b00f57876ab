"""Randomized differential check of the incremental platform round.

Two :class:`Crowd4U` instances receive the *same* randomized operation
stream — worker registrations, factor edits, interest declarations,
membership confirmations/declines, micro-task submissions, constraint
updates, ad-hoc task posts and time steps.  One instance runs the
dirty-tracked incremental round, the other the recompute-everything
``full`` round.  After every scenario the persistent state — the
relationship ledger, the task pool and the team registry, i.e. everything
the storage engine holds — must be byte-identical, and the incremental
instance must additionally pass its own from-scratch eligibility
cross-check.

The CI ``platform-diff`` job runs this module with
``PLATFORM_DIFF_EXAMPLES=40``, mirroring the ``engine-diff`` oracle gate;
the local default keeps the tier-1 suite fast.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import Crowd4U, HumanFactors, SkillRequirement, TeamConstraints
from repro.core.projects import SchemeKind
from repro.core.relationships import RelationshipStatus
from repro.core.teams import TeamStatus

EXAMPLES = int(os.environ.get("PLATFORM_DIFF_EXAMPLES", "6"))

pytestmark = pytest.mark.platform_diff

_CYLOG_SOURCE = """
    open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
    segment("s1"). segment("s2"). segment("s3").
    eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
    translated(S, T) :- segment(S), translate(S, T).
"""

_REGIONS = ("tsukuba", "paris", "lyon", "osaka")


def _random_factors(rng: random.Random) -> HumanFactors:
    return HumanFactors(
        native_languages=frozenset({rng.choice(("en", "ja"))}),
        languages={"fr": rng.choice((0.2, 0.4, 0.6, 0.9))},
        region=rng.choice(_REGIONS),
        skills={"translation": rng.choice((0.3, 0.5, 0.7, 0.9))},
        reliability=rng.choice((0.6, 0.8, 0.95)),
    )


def _random_constraints(rng: random.Random) -> TeamConstraints:
    return TeamConstraints(
        min_size=rng.choice((1, 2)),
        critical_mass=rng.choice((2, 3)),
        skills=(SkillRequirement("translation", rng.choice((0.2, 0.4))),),
    )


def _state_fingerprint(platform: Crowd4U) -> str:
    """Everything the storage engine persists, in deterministic order."""
    relationships = sorted(
        (row["worker_id"], row["task_id"], row["status"])
        for row in platform.db.table("relationship").rows()
    )
    tasks = sorted(
        (
            row["id"], row["status"], row["team_id"], row["assignee"],
            row["parent_task_id"], repr(row["result"]),
        )
        for row in platform.db.table("task").rows()
    )
    teams = sorted(
        (team.id, team.task_id, team.status.value, tuple(team.members),
         tuple(sorted(team.confirmed)))
        for team in platform.teams.all()
    )
    return repr((relationships, tasks, teams))


def _drive(pair: tuple[Crowd4U, Crowd4U], rng: random.Random) -> None:
    """Apply one random operation to both platforms.

    Choices are derived from the first (incremental) instance's public
    state; if the instances had already diverged, an op may be illegal on
    the second one — which the test then reports as a failure.
    """
    inc, _ = pair
    op = rng.choice(
        ("worker", "worker", "update", "interest", "interest",
         "confirm", "decline", "micro", "constraints", "post", "step", "step")
    )
    if op == "worker":
        factors = _random_factors(rng)
        name = f"w{rng.randrange(10_000)}"
        for platform in pair:
            platform.register_worker(name, factors)
    elif op == "update" and len(inc.workers):
        worker_id = rng.choice(inc.workers.ids())
        factors = _random_factors(rng)
        for platform in pair:
            platform.update_worker_factors(worker_id, factors)
    elif op == "interest" and len(inc.workers):
        worker_id = rng.choice(inc.workers.ids())
        tasks = inc.eligible_tasks(worker_id)
        candidates = [
            t.id for t in tasks
            if inc.ledger.status(worker_id, t.id) is RelationshipStatus.ELIGIBLE
        ]
        if candidates:
            task_id = rng.choice(candidates)
            for platform in pair:
                platform.declare_interest(worker_id, task_id)
    elif op in ("confirm", "decline"):
        proposed = [t for t in inc.teams.all() if t.status is TeamStatus.PROPOSED]
        if proposed:
            team = rng.choice(sorted(proposed, key=lambda t: t.id))
            unconfirmed = sorted(set(team.members) - set(team.confirmed))
            if unconfirmed:
                worker_id = rng.choice(unconfirmed)
                for platform in pair:
                    if op == "confirm":
                        platform.confirm_membership(worker_id, team.task_id)
                    else:
                        platform.decline_membership(worker_id, team.task_id)
    elif op == "micro":
        micro = [
            (t.id, t.assignee)
            for w in inc.workers.ids()
            for t in inc.tasks_for_worker(w)
            if t.assignee == w and t.parent_task_id is not None
        ]
        if micro:
            task_id, worker_id = rng.choice(sorted(micro))
            for platform in pair:
                platform.submit_micro_result(
                    task_id, worker_id, {"text": f"by-{worker_id}", "quality": 0.8}
                )
    elif op == "constraints" and len(inc.projects):
        project_id = rng.choice(sorted(p.id for p in inc.projects.active()))
        constraints = _random_constraints(rng)
        for platform in pair:
            platform.update_constraints(project_id, constraints)
    elif op == "post" and len(inc.projects):
        project_id = rng.choice(sorted(p.id for p in inc.projects.active()))
        instruction = f"custom-{rng.randrange(100)}"
        for platform in pair:
            platform.post_task(project_id, instruction)
    elif op == "step":
        inc_platform, full_platform = pair
        inc_platform.step(cross_check=True)
        full_platform.step(full=True)


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_incremental_matches_full_recompute(seed: int) -> None:
    rng = random.Random(1000 + seed)
    pair = (Crowd4U(seed=seed), Crowd4U(seed=seed))
    for platform in pair:
        for i in range(3):
            platform.register_worker(
                f"seed-w{i}", _random_factors(random.Random(seed * 7 + i))
            )
    # One CyLog-eligibility project and one constraint-screen project.
    for platform in pair:
        platform.register_project(
            "subs", "req", _CYLOG_SOURCE,
            scheme=SchemeKind.SEQUENTIAL,
            constraints=_random_constraints(random.Random(seed)),
        )
        platform.register_project(
            "survey", "req",
            'open rate(item: text, verdict: text) key (item).\nitem("i1"). item("i2").\n'
            "rated(I, S) :- item(I), rate(I, S).",
            scheme=SchemeKind.SEQUENTIAL,
            constraints=_random_constraints(random.Random(seed + 1)),
        )
    for _ in range(40):
        _drive(pair, rng)
        assert _state_fingerprint(pair[0]) == _state_fingerprint(pair[1])
    # Final settled rounds, still in lockstep.
    for _ in range(3):
        pair[0].step(cross_check=True)
        pair[1].step(full=True)
        assert _state_fingerprint(pair[0]) == _state_fingerprint(pair[1])
    # The incremental instance must actually have skipped work.
    stats = pair[0].stats
    assert stats.eligibility_pairs_checked + stats.eligibility_pairs_skipped > 0
