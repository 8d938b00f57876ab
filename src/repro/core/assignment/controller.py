"""The Task Assignment Controller (Figure 2, steps 1–5; §2.2.1).

Workflow reproduced from the paper:

1. the project admin page supplies the desired human factors,
2. those factors reach this controller,
3. user pages record worker interest (*InterestedIn*) via the ledger,
4. the worker manager supplies human factors + the affinity matrix,
5. the controller picks a team of eligible∧interested workers satisfying
   the desired factors, proposes it, and asks each member to join.

"The assignment controller waits for a sufficient number of workers to
show interest … Unless all suggested workers start to perform the
collaborative task by the specified deadline, task assignment is
re-executed to find a new team.  In addition, if none of the possible
teams satisfying human factors accepts the task, Crowd4U suggests to the
requester to update her input."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.affinity import AffinityMatrix
from repro.core.assignment.base import (
    AssignerRegistry,
    AssignmentProblem,
    AssignmentResult,
    default_registry,
)
from repro.core.constraints import TeamConstraints
from repro.core.events import EventBus
from repro.core.relationships import RelationshipLedger
from repro.core.tasks import Task, TaskPool, TaskStatus
from repro.core.teams import Team, TeamRegistry, TeamStatus
from repro.core.workers import WorkerManager


@dataclass(frozen=True)
class RequesterSuggestion:
    """Feedback to the requester when no feasible team exists."""

    task_id: str
    reason: str
    relaxations: tuple[str, ...] = ()
    #: The concrete constraint objects behind each relaxation description,
    #: so a requester (or the simulation driver) can apply one directly.
    relaxed_constraints: tuple[TeamConstraints, ...] = ()

    def best_option(self) -> str | None:
        return self.relaxations[0] if self.relaxations else None

    def best_constraints(self) -> TeamConstraints | None:
        return self.relaxed_constraints[0] if self.relaxed_constraints else None


@dataclass(frozen=True)
class AssignmentOutcome:
    """What one assignment attempt produced."""

    task_id: str
    team: Team | None = None
    waiting: bool = False
    suggestion: RequesterSuggestion | None = None
    result: AssignmentResult | None = None

    @property
    def proposed(self) -> bool:
        return self.team is not None


@dataclass
class TaskAssignmentController:
    workers: WorkerManager
    ledger: RelationshipLedger
    affinity: AffinityMatrix
    pool: TaskPool
    teams: TeamRegistry
    events: EventBus
    registry: AssignerRegistry = field(default_factory=default_registry)
    #: Pending root tasks whose assignment inputs (interested set, team
    #: constraints, candidate factors, affinity scores, forbidden-team
    #: history) changed since the last :meth:`try_assign`.  An attempt on a
    #: task outside this set is guaranteed to reproduce its previous
    #: outcome, so the platform's incremental round skips it.  Re-arming
    #: happens on new tasks, interest declarations, constraint updates,
    #: factor edits (tasks where the worker is a live candidate) and team
    #: dissolutions.  A recorded result of a team of two or more
    #: reinforces the affinity of the team's own pairs, which assigners
    #: read only between a task's INTERESTED candidates: it re-arms just
    #: the pending tasks where a member is INTERESTED (a one-member team
    #: re-arms nothing).
    _reattempt: set[str] = field(default_factory=set, repr=False)

    # -- incremental-round gating ------------------------------------------------
    def mark_dirty(self, task_id: str) -> None:
        """Flag a task as worth (re-)attempting on the next platform round."""
        self._reattempt.add(task_id)

    def clear_dirty(self, task_id: str) -> None:
        self._reattempt.discard(task_id)

    def is_dirty(self, task_id: str) -> bool:
        return task_id in self._reattempt

    # -- step 5: team formation --------------------------------------------------
    def try_assign(
        self,
        task: Task,
        constraints: TeamConstraints,
        algorithm: str,
        now: float,
    ) -> AssignmentOutcome:
        """Attempt team formation for a pending root task.

        Only workers both *Eligible* and *InterestedIn* are candidates; if
        fewer than ``constraints.min_size`` are interested the controller
        keeps waiting (the paper's sufficient-interest gate).
        """
        interested = self.ledger.interested_workers(task.id)
        if len(interested) < constraints.min_size:
            return AssignmentOutcome(task_id=task.id, waiting=True)
        candidates = tuple(self.workers.get(wid) for wid in interested)
        problem = AssignmentProblem(
            workers=candidates,
            affinity=self.affinity,
            constraints=constraints,
            forbidden_teams=frozenset(
                self.teams.previously_dissolved_members(task.id)
            ),
        )
        assigner = self.registry.create(algorithm)
        result = assigner.assign(problem)
        if not result.feasible:
            suggestion = self.suggest_relaxation(task, problem, algorithm)
            self.events.publish(
                "assignment.infeasible",
                now,
                task_id=task.id,
                algorithm=algorithm,
                suggestion=suggestion.reason,
            )
            return AssignmentOutcome(
                task_id=task.id, suggestion=suggestion, result=result
            )
        team = self.teams.propose(
            task_id=task.id,
            members=result.team,
            affinity_score=result.affinity_score,
            algorithm=algorithm,
            proposed_at=now,
            confirm_by=now + constraints.confirmation_window,
        )
        self.pool.assign_team(task.id, team.id)
        self.events.publish(
            "team.proposed",
            now,
            task_id=task.id,
            team_id=team.id,
            members=list(team.members),
            affinity=result.affinity_score,
            algorithm=algorithm,
        )
        return AssignmentOutcome(task_id=task.id, team=team, result=result)

    # -- member confirmations ------------------------------------------------
    def confirm_member(self, team_id: str, worker_id: str, now: float) -> Team:
        """A proposed member undertakes the task (ledger invariant applies)."""
        team = self.teams.get(team_id)
        self.ledger.undertake(worker_id, team.task_id, now)
        team = self.teams.confirm_member(team_id, worker_id)
        self.events.publish(
            "team.member_confirmed",
            now,
            team_id=team_id,
            worker_id=worker_id,
            all_confirmed=team.all_confirmed,
        )
        if team.all_confirmed:
            self.pool.activate(team.task_id)
            self.events.publish(
                "task.active", now, task_id=team.task_id, team_id=team_id
            )
        return team

    def decline_member(self, team_id: str, worker_id: str, now: float) -> Team:
        """A proposed member refuses; the team dissolves immediately and the
        task returns to the pool for re-assignment."""
        team = self.teams.get(team_id)
        self.ledger.decline(worker_id, team.task_id, now)
        return self._dissolve(team, now, reason=f"{worker_id} declined")

    def check_confirmation_deadline(self, team_id: str, now: float) -> Team | None:
        """Dissolve the team if its confirmation window elapsed (§2.2.1:
        're-executed to find a new team')."""
        team = self.teams.get(team_id)
        if team.status is not TeamStatus.PROPOSED:
            return None
        if team.confirm_by is not None and now > team.confirm_by:
            return self._dissolve(team, now, reason="confirmation deadline")
        return None

    def _dissolve(self, team: Team, now: float, reason: str) -> Team:
        team = self.teams.set_status(team.id, TeamStatus.DISSOLVED)
        task = self.pool.get(team.task_id)
        if task.status is TaskStatus.PROPOSED:
            self.pool.clear_team(team.task_id)
        # The forbidden-team history and member states changed: the task is
        # worth re-attempting on the next round ("task assignment is
        # re-executed to find a new team").
        self.mark_dirty(team.task_id)
        # Members who had already undertaken the task remain willing
        # candidates: revert them to Interested for the re-execution.
        from repro.core.relationships import RelationshipStatus

        for member in team.confirmed:
            if (
                self.ledger.status(member, team.task_id)
                is RelationshipStatus.UNDERTAKES
            ):
                self.ledger.declare_interest(member, team.task_id, now)
        self.events.publish(
            "team.dissolved", now, team_id=team.id, task_id=team.task_id,
            reason=reason,
        )
        return team

    # -- requester feedback -------------------------------------------------------
    def suggest_relaxation(
        self, task: Task, problem: AssignmentProblem, algorithm: str
    ) -> RequesterSuggestion:
        """Find single-constraint relaxations that admit a feasible team."""
        assigner = self.registry.create(algorithm)
        working: list[str] = []
        working_constraints: list[TeamConstraints] = []
        original = problem.constraints
        for dimension in original.RELAXATION_DIMENSIONS:
            # Walk one dimension at a time, up to a handful of steps, until a
            # feasible team appears (the requester sees the cumulative change).
            candidate = original
            for _ in range(6):
                relaxed = candidate.relax_dimension(dimension)
                if relaxed is None:
                    break
                candidate = relaxed
                relaxed_problem = AssignmentProblem(
                    workers=problem.workers,
                    affinity=problem.affinity,
                    constraints=candidate,
                    forbidden_teams=problem.forbidden_teams,
                )
                try:
                    feasible = assigner.assign(relaxed_problem).feasible
                except Exception:  # noqa: BLE001 - relaxation may overflow exact
                    break
                if feasible:
                    working.append(original.describe_difference(candidate))
                    working_constraints.append(candidate)
                    break
        reason = (
            "no team of eligible+interested workers satisfies the desired "
            "human factors"
        )
        return RequesterSuggestion(
            task_id=task.id,
            reason=reason,
            relaxations=tuple(working),
            relaxed_constraints=tuple(working_constraints),
        )
