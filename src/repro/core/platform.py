"""The Crowd4U facade: every component of Figure 2 wired together.

The platform exposes the two personas of the demo:

**Requesters** register projects (a CyLog project description + desired
human factors + collaboration scheme), watch suggestions when no feasible
team exists, and read results.

**Workers** see the tasks they are eligible for on their user page,
declare interest, undertake (confirm) proposed team memberships, perform
micro-tasks, contribute to joint documents and submit team results.

Time advances through :meth:`step`, which performs one platform round:
CyLog re-evaluation → dynamic task generation → eligibility computation →
team formation attempts → deadline monitoring.

Rounds are *incremental* by default: the CyLog engine itself reports what
each evaluation added and removed (``EvaluationResult.added/removed``,
accumulated per project by ``CyLogProcessor.drain_deltas``), so the round
applies exactly those change sets to the Eligible ledger — no fingerprint
guessing.  Constraint-screen projects (no ``eligible`` rule) are driven by
a per-round dirty-worker set, and a task that sat outside the pending pool
(proposed/active) re-derives in full when it returns, since it missed the
change feeds in between.  ``step(full=True)`` is the recompute-everything
escape hatch, and ``step(cross_check=True)`` runs an engine-diff-style
oracle that verifies the incrementally maintained ledger against a
from-scratch recomputation.  Work counters live in :class:`PlatformStats`.

Each project's CyLog engine keeps one relation store.  The round's
eligibility maintenance probes it directly: a removed row's membership
check is one hash-index lookup, ``relation.lookup((0,), (worker_id,))``.

>>> from repro.core import Crowd4U, HumanFactors, TeamConstraints
>>> platform = Crowd4U(seed=1)
>>> worker = platform.register_worker(
...     "ann", HumanFactors(native_languages=frozenset({"en"})))
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.config import RuntimeConfig

from repro.core.affinity import (
    AffinityMatrix,
    AffinityWeights,
    language_overlap,
    region_proximity,
    skill_complementarity,
)
from repro.core.assignment.controller import (
    AssignmentOutcome,
    RequesterSuggestion,
    TaskAssignmentController,
)
from repro.core.assignment.base import AssignerRegistry, default_registry
from repro.core.collaboration.base import (
    CollaborationContext,
    CollaborationScheme,
    SchemeRegistry,
    TeamResult,
    default_scheme_registry,
)
from repro.core.collaboration.artifacts import Document
from repro.core.collaboration.coordination import ResultCoordinator
from repro.core.constraints import TeamConstraints
from repro.core.events import Event, EventBus
from repro.core.human_factors import HumanFactors
from repro.core.monitor import CollaborationMonitor
from repro.core.projects import Project, ProjectManager, SchemeKind
from repro.core.relationships import (
    ELIGIBLE_ROOTED,
    RelationshipLedger,
    RelationshipStatus,
)
from repro.core.tasks import OPEN_STATUSES, Task, TaskKind, TaskPool, TaskStatus
from repro.core.teams import TeamRegistry, TeamStatus
from repro.core.workers import Worker, WorkerManager
from repro.cylog import CyLogProcessor, TaskRequest
from repro.errors import CollaborationError, PlatformError
from repro.metrics.counters import CounterRecord
from repro.storage import Database, col
from repro.util import IdFactory

#: Stored-value forms for the cached storage queries below.
_ELIGIBLE_ROOTED = tuple(status.value for status in ELIGIBLE_ROOTED)
_OPEN_STATUS_VALUES = tuple(status.value for status in OPEN_STATUSES)


@dataclass
class PlatformStats(CounterRecord):
    """Work counters for one :class:`Crowd4U` instance (cumulative).

    The eligibility counters measure how much of the naive
    tasks × workers product each round actually re-derived:
    ``eligibility_pairs_skipped`` is the direct savings of the dirty-tracked
    incremental step over the full recompute.  Feed the counters into a
    metrics collector with :meth:`to_collector` (once per collector — the
    values are cumulative), mirroring ``EngineStats``.
    """

    collector_prefix = "platform"

    rounds: int = 0
    eligibility_tasks_full: int = 0
    eligibility_tasks_partial: int = 0
    eligibility_tasks_skipped: int = 0
    eligibility_pairs_checked: int = 0
    eligibility_pairs_skipped: int = 0
    eligibility_revoked: int = 0
    assignment_attempts: int = 0
    assignments_skipped: int = 0
    cross_checks: int = 0


@dataclass(frozen=True)
class RoundDeltas:
    """What one platform round changed in the eligibility surface.

    Published to :meth:`Crowd4U.subscribe_round_deltas` listeners at the
    end of every round's eligibility refresh, so consumers (the delta-mode
    simulation driver, dashboards) can react to exactly what changed
    instead of re-scanning the worker × task product each tick.

    ``eligible_added`` / ``eligible_removed`` map task ids to the workers
    whose *pure Eligible* rows were inserted / revoked this round by the
    incremental maintenance paths.  Tasks in ``full_tasks`` had their whole
    eligible set re-derived (new task, constraints changed, task returned
    to the pending pool, or a ``full=True`` round) — their per-worker
    changes are deliberately *not* enumerated, so subscribers must treat
    every worker of those tasks as potentially changed.  ``dirty_workers``
    is the round's consumed dirty set (factor edits / registrations).
    """

    round_no: int
    time: float
    eligible_added: dict[str, frozenset[str]] = field(default_factory=dict)
    eligible_removed: dict[str, frozenset[str]] = field(default_factory=dict)
    dirty_workers: frozenset[str] = frozenset()
    full_tasks: frozenset[str] = frozenset()


class _RoundRecording:
    """Mutable per-round accumulator behind :class:`RoundDeltas`."""

    __slots__ = ("added", "removed", "full")

    def __init__(self) -> None:
        self.added: dict[str, set[str]] = {}
        self.removed: dict[str, set[str]] = {}
        self.full: set[str] = set()


class Crowd4U:
    """One in-process Crowd4U deployment."""

    def __init__(
        self,
        seed: int = 0,
        db: Database | None = None,
        affinity_weights: AffinityWeights | None = None,
        *,
        config: RuntimeConfig | None = None,
    ) -> None:
        self.config = config = config if config is not None else RuntimeConfig()
        self.seed = seed
        self.now = 0.0
        self.stats = PlatformStats()
        #: An explicitly supplied database wins; otherwise the config
        #: opens one on its chosen storage backend (restoring persisted
        #: state when the backend has any).
        self.db = db if db is not None else config.build_database()
        self.events = EventBus()
        self.workers = WorkerManager(self.db)
        self.affinity = AffinityMatrix()
        self.affinity_weights = affinity_weights or AffinityWeights()
        self.pool = TaskPool(self.db)
        self.ledger = RelationshipLedger(self.db)
        self.teams = TeamRegistry(self.db)
        self.projects = ProjectManager(self.db)
        self.assigners: AssignerRegistry = default_registry(seed)
        self.schemes: SchemeRegistry = default_scheme_registry()
        self.controller = TaskAssignmentController(
            workers=self.workers,
            ledger=self.ledger,
            affinity=self.affinity,
            pool=self.pool,
            teams=self.teams,
            events=self.events,
            registry=self.assigners,
        )
        self.coordinator = ResultCoordinator(
            db=self.db,
            pool=self.pool,
            teams=self.teams,
            ledger=self.ledger,
            affinity=self.affinity,
            events=self.events,
        )
        self.monitor = CollaborationMonitor(
            pool=self.pool, teams=self.teams, controller=self.controller,
            events=self.events,
        )
        self._processors: dict[str, CyLogProcessor] = {}
        self._active_schemes: dict[str, tuple[CollaborationScheme, CollaborationContext]] = {}
        self._suggestions: dict[str, list[RequesterSuggestion]] = {}
        self._doc_ids = IdFactory("doc", width=5)
        # -- dirty tracking for incremental rounds --------------------------
        #: Workers whose factors/registration changed since the last round;
        #: consumed by the constraint-screen eligibility path (CyLog-driven
        #: eligibility rides the engine's own change sets instead).
        self._dirty_workers: set[str] = set()
        #: tasks whose whole eligible set must be re-derived (constraint
        #: updates); new tasks are caught by the missing round cursor.
        self._task_needs_full: set[str] = set()
        #: task -> the round number its eligibility last consumed.  A task
        #: absent for a round (parked in PROPOSED/ACTIVE, or freshly
        #: created) missed the drained change feeds and re-derives in full.
        self._task_round: dict[str, int] = {}
        #: (project, task predicate) -> the eligible predicate that
        #: decides it (None: the constraint screen); resolved once, since a
        #: project's compiled program never changes.
        self._eligible_names: dict[tuple[str, str | None], str | None] = {}
        #: Round-delta subscription surface (see :meth:`subscribe_round_deltas`).
        #: Recording only happens while at least one listener is registered,
        #: so snapshot-style consumers pay nothing.
        self._round_delta_listeners: list[Callable[[RoundDeltas], None]] = []
        self._recording: _RoundRecording | None = None
        #: Bounded affinity extension: the most recently registered worker
        #: ids, compared against each new registration when
        #: ``AffinityWeights.max_neighbors`` caps the quadratic extension.
        limit = self.affinity_weights.max_neighbors
        self._recent_workers: deque[str] | None = (
            deque(maxlen=limit) if limit else None
        )
        self.pool.on_create = self._publish_task_created
        self.events.subscribe("task.active", self._on_task_active)

    # ------------------------------------------------------------------
    # Worker-side API (user pages)
    # ------------------------------------------------------------------
    def register_worker(self, name: str, factors: HumanFactors) -> Worker:
        """Create a worker account; factors flow into every project's CyLog
        processor and the affinity matrix is extended incrementally."""
        worker = self.workers.register(name, factors, joined_at=self.now)
        self._extend_affinity(worker)
        for processor in self._processors.values():
            for predicate, rows in factors.as_fact_rows(worker.id).items():
                processor.add_facts(predicate, rows)
        self._mark_worker_dirty(worker.id)
        self.events.publish("worker.registered", self.now, worker_id=worker.id)
        return worker

    def update_worker_factors(self, worker_id: str, factors: HumanFactors) -> Worker:
        """Apply the worker page's human-factor edits (Figure 4)."""
        worker = self.workers.update_factors(worker_id, factors)
        # Re-inject facts; CyLog fact stores are additive, so eligibility
        # rules see the union of old and new declarations.
        for processor in self._processors.values():
            for predicate, rows in factors.as_fact_rows(worker.id).items():
                processor.add_facts(predicate, rows)
        self._mark_worker_dirty(worker_id)
        # New factors change how assigners screen this worker: re-arm every
        # task where the worker is a live team-formation candidate.
        for status in (RelationshipStatus.INTERESTED, RelationshipStatus.UNDERTAKES):
            for task_id in self.ledger.tasks_with_status(worker_id, status):
                self.controller.mark_dirty(task_id)
        self.events.publish("worker.updated", self.now, worker_id=worker_id)
        return worker

    def eligible_tasks(self, worker_id: str) -> list[Task]:
        """The user page's task list: pending root tasks the worker is
        eligible for (§2.2.1 step 3).

        The ledger query probes the relationship table's ``worker_id``
        index, so it reads only this worker's rows, and is memoised in the
        storage query cache until the ledger next changes.
        """
        self.workers.get(worker_id)
        rows = (
            self.db.query("relationship")
            .where(
                (col("worker_id") == worker_id)
                & col("status").in_(_ELIGIBLE_ROOTED)
            )
            .project("task_id")
            .execute_cached()
        )
        related = {row["task_id"] for row in rows}
        return [t for t in self.pool.pending_root_tasks() if t.id in related]

    def declare_interest(self, worker_id: str, task_id: str) -> None:
        """Record InterestedIn (requires eligibility)."""
        self.ledger.declare_interest(worker_id, task_id, self.now)
        # The interested set grew: the task is worth a fresh formation attempt.
        self.controller.mark_dirty(task_id)
        self.events.publish(
            "worker.interested", self.now, worker_id=worker_id, task_id=task_id
        )

    def confirm_membership(self, worker_id: str, task_id: str) -> None:
        """A proposed member undertakes the collaborative task."""
        task = self.pool.get(task_id)
        if task.team_id is None:
            raise PlatformError(f"task {task_id} has no proposed team")
        self.controller.confirm_member(task.team_id, worker_id, self.now)

    def decline_membership(self, worker_id: str, task_id: str) -> None:
        task = self.pool.get(task_id)
        if task.team_id is None:
            raise PlatformError(f"task {task_id} has no proposed team")
        self.controller.decline_member(task.team_id, worker_id, self.now)

    def tasks_for_worker(self, worker_id: str) -> list[Task]:
        """Open micro-tasks addressed to the worker, including JOINT tasks
        addressed to her team.  Both lists come from cached storage queries;
        the JOINT candidate set is worker-independent, so one cache entry
        serves every worker page."""
        rows = (
            self.db.query("task")
            .where(
                (col("assignee") == worker_id)
                & col("status").in_(_OPEN_STATUS_VALUES)
            )
            .project("id")
            .execute_cached()
        )
        addressed = [self.pool.get(row["id"]) for row in rows]
        joint_rows = (
            self.db.query("task")
            .where(
                (col("kind") == TaskKind.JOINT.value)
                & (col("status") == TaskStatus.PENDING.value)
            )
            .project("id")
            .execute_cached()
        )
        for row in joint_rows:
            task = self.pool.get(row["id"])
            if worker_id in task.payload.get("addressed_to", ()):
                addressed.append(task)
        return sorted(addressed, key=lambda t: t.id)

    def submit_micro_result(
        self, task_id: str, worker_id: str, result: dict[str, Any]
    ) -> None:
        """Complete one micro-task; the scheme may generate follow-ups and
        the whole collaboration may finish."""
        task = self.pool.get(task_id)
        if task.kind is TaskKind.JOINT:
            if worker_id not in task.payload.get("addressed_to", ()):
                raise PlatformError(
                    f"worker {worker_id} is not addressed by joint task {task_id}"
                )
            task = self.pool.set_assignee(task_id, worker_id)
        elif task.assignee != worker_id:
            raise PlatformError(
                f"task {task_id} is addressed to {task.assignee!r}, "
                f"not {worker_id!r}"
            )
        if task.parent_task_id is None:
            raise PlatformError(f"task {task_id} is not a scheme micro-task")
        completed = self.pool.complete(task_id, result)
        self.events.publish(
            "micro.completed", self.now,
            task_id=task_id, worker_id=worker_id, task_kind=task.kind.value,
        )
        entry = self._active_schemes.get(task.parent_task_id)
        if entry is None:
            return  # scheme already finished (e.g. duplicate submission path)
        scheme, ctx = entry
        scheme.on_micro_completed(ctx, completed, result, self.now)
        if scheme.is_complete(ctx):
            team_result = scheme.build_result(ctx, submitted_by=worker_id, now=self.now)
            self._finish_collaboration(ctx.root_task, team_result, result)

    def contribute(self, root_task_id: str, worker_id: str, content: str) -> None:
        """Write into the shared document of a simultaneous/hybrid task."""
        entry = self._active_schemes.get(root_task_id)
        if entry is None:
            raise CollaborationError(f"task {root_task_id} has no active scheme")
        scheme, ctx = entry
        contribute = getattr(scheme, "contribute", None)
        if contribute is None:
            raise CollaborationError(
                f"scheme {scheme.kind!r} does not accept parallel contributions"
            )
        contribute(ctx, worker_id, content, self.now)

    @contextlib.contextmanager
    def batch_writes(self) -> Iterator["Crowd4U"]:
        """Coalesce a burst of worker-facing mutations into one engine
        continuation per project.

        Enters every project processor's :meth:`CyLogProcessor.batch`
        context (in sorted project order, exited in reverse), so worker
        registrations, factor updates and answer submissions performed
        inside the block queue their facts and fold in with a single
        incremental evaluation — and one demand refresh — per project at
        block exit.  The serving front-end's admission drainer wraps each
        drained tick in this; it is equally useful for bulk imports.
        """
        with contextlib.ExitStack() as stack:
            for project_id in sorted(self._processors):
                stack.enter_context(self._processors[project_id].batch())
            yield self

    # ------------------------------------------------------------------
    # Requester-side API (admin pages)
    # ------------------------------------------------------------------
    def register_project(
        self,
        name: str,
        requester: str,
        cylog_source: str,
        scheme: SchemeKind = SchemeKind.SEQUENTIAL,
        constraints: TeamConstraints | None = None,
        assignment_algorithm: str = "greedy",
        options: dict[str, Any] | None = None,
    ) -> Project:
        """Register a project: parse the CyLog description, inject worker
        facts and start generating tasks (Figure 2, arrow 'register')."""
        constraints = constraints or TeamConstraints()
        project = self.projects.register(
            name=name,
            requester=requester,
            cylog_source=cylog_source,
            scheme=scheme,
            constraints=constraints,
            assignment_algorithm=assignment_algorithm,
            created_at=self.now,
            options=options,
        )
        processor = CyLogProcessor(cylog_source)
        processor.add_demand_listener(
            lambda requests, pid=project.id: self._materialise_requests(pid, requests)
        )
        processor.add_revocation_listener(
            lambda requests, pid=project.id: self._retire_requests(pid, requests)
        )
        self._processors[project.id] = processor
        # Inject the whole worker fact base as one batch: the batch exit
        # performs the single evaluation + demand refresh for the project.
        with processor.batch():
            for predicate, rows in self.workers.fact_rows().items():
                processor.add_facts(predicate, rows)
        self.events.publish(
            "project.registered", self.now, project_id=project.id, name=name
        )
        return project

    def post_task(
        self,
        project_id: str,
        instruction: str,
        kind: TaskKind = TaskKind.CUSTOM,
        payload: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> Task:
        """Post a root collaborative task directly (outside CyLog)."""
        project = self.projects.get(project_id)
        if deadline is None and project.constraints.recruitment_deadline is not None:
            deadline = self.now + project.constraints.recruitment_deadline
        task = self.pool.create(
            project_id=project_id,
            kind=kind,
            instruction=instruction,
            payload=dict(payload or {}),
            created_at=self.now,
            deadline=deadline,
        )
        self.controller.mark_dirty(task.id)
        self.events.publish(
            "task.posted", self.now, task_id=task.id, project_id=project_id
        )
        return task

    def update_constraints(
        self, project_id: str, constraints: TeamConstraints
    ) -> Project:
        """Admin form submission: new desired human factors (Figure 3)."""
        project = self.projects.update_constraints(project_id, constraints)
        self._suggestions.pop(project_id, None)
        # Constraints feed both the eligibility screen and team formation:
        # every open root task of the project must re-derive from scratch.
        for task in self.pool.open_tasks(project_id):
            if task.is_root:
                self._task_needs_full.add(task.id)
                self.controller.mark_dirty(task.id)
        self.events.publish(
            "project.constraints_updated", self.now, project_id=project_id
        )
        return project

    def suggestions_for(self, project_id: str) -> list[RequesterSuggestion]:
        """Pending requester feedback (no feasible team situations)."""
        return list(self._suggestions.get(project_id, ()))

    def processor(self, project_id: str) -> CyLogProcessor:
        try:
            return self._processors[project_id]
        except KeyError:
            raise PlatformError(
                f"project {project_id!r} has no CyLog processor"
            ) from None

    def results_for(self, project_id: str) -> list[dict]:
        return self.coordinator.results_for_project(project_id)

    # ------------------------------------------------------------------
    # The platform round
    # ------------------------------------------------------------------
    def step(
        self,
        dt: float = 1.0,
        full: bool = False,
        cross_check: bool = False,
    ) -> dict[str, int]:
        """Advance time and run one platform round.

        ``full=True`` forces the recompute-everything round;
        ``cross_check=True`` additionally verifies the incremental
        bookkeeping against a from-scratch eligibility recomputation,
        engine-diff style, raising :class:`PlatformError` on divergence.
        """
        self.now += dt
        incremental = not full
        self.stats.rounds += 1
        generated_before = len(self.pool)
        for processor in self._processors.values():
            processor.run()
        self._refresh_eligibility(incremental)
        if cross_check:
            self._cross_check_eligibility()
        attempts = 0
        proposals = 0
        skipped = 0
        for project in self.projects.active():
            for task in self.pool.pending_root_tasks(project.id):
                if incremental and not self.controller.is_dirty(task.id):
                    skipped += 1
                    self.stats.assignments_skipped += 1
                    continue
                self.controller.clear_dirty(task.id)
                outcome = self._attempt_assignment(project, task)
                attempts += 1
                self.stats.assignment_attempts += 1
                if outcome.proposed:
                    proposals += 1
        monitor_counts = self.monitor.tick(self.now)
        self._prune_round_state()
        return {
            "time": int(self.now),
            "tasks_generated": len(self.pool) - generated_before,
            "assignment_attempts": attempts,
            "assignments_skipped": skipped,
            "teams_proposed": proposals,
            **monitor_counts,
        }

    def run_until_quiet(self, max_steps: int = 1000, dt: float = 1.0) -> int:
        """Step until no open root tasks remain (or the step budget ends);
        returns the number of steps taken."""
        for steps in range(1, max_steps + 1):
            self.step(dt)
            if not any(t.is_root for t in self.pool.open_tasks()):
                return steps
        return max_steps

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def subscribe_round_deltas(self, listener: Callable[[RoundDeltas], None]) -> None:
        """Receive a :class:`RoundDeltas` after every round's eligibility
        refresh.  Registering the first listener turns recording on; with no
        listeners the incremental paths skip all bookkeeping."""
        self._round_delta_listeners.append(listener)

    def _publish_task_created(self, task: Task) -> None:
        """Pool creation hook → ``task.created`` event.

        Unlike ``task.posted`` / ``task.generated`` (root tasks only), this
        fires for *every* task including scheme-generated micro-tasks, so a
        subscriber can maintain an addressed-task index without scanning."""
        self.events.publish(
            "task.created", self.now,
            task_id=task.id, task_kind=task.kind.value,
            assignee=task.assignee, parent_task_id=task.parent_task_id,
        )

    def _extend_affinity(self, new_worker: Worker) -> None:
        weights = self.affinity_weights
        if weights.max_neighbors == 0:
            return
        if self._recent_workers is not None:
            others: list[Worker] = [
                self.workers.get(wid) for wid in self._recent_workers
            ]
            self._recent_workers.append(new_worker.id)
        else:
            others = self.workers.all()
        total = weights.language + weights.region + weights.skill_complementarity
        for other in others:
            if other.id == new_worker.id:
                continue
            score = (
                weights.language * language_overlap(new_worker, other)
                + weights.region * region_proximity(new_worker, other, weights.geo_scale_km)
                + weights.skill_complementarity * skill_complementarity(new_worker, other)
            ) / total
            if score > 0.0:
                self.affinity.set(new_worker.id, other.id, score)

    def _materialise_requests(
        self, project_id: str, requests: list[TaskRequest]
    ) -> None:
        """Demand listener: open-predicate demand → tasks in the pool."""
        project = self.projects.get(project_id)
        deadline = None
        if project.constraints.recruitment_deadline is not None:
            deadline = self.now + project.constraints.recruitment_deadline
        for request in requests:
            task = self.pool.create(
                project_id=project_id,
                kind=TaskKind.OPEN_FILL,
                instruction=request.instruction,
                predicate=request.predicate,
                key_values=request.key_values,
                fill_columns=request.fill_columns,
                choices=request.choices,
                created_at=self.now,
                deadline=deadline,
            )
            self.controller.mark_dirty(task.id)
            self.events.publish(
                "task.generated", self.now,
                task_id=task.id, project_id=project_id,
                predicate=request.predicate,
                key=list(request.key_values),
            )

    def _retire_requests(self, project_id: str, requests: list[TaskRequest]) -> None:
        """Revocation listener: an upstream retraction withdrew open-
        predicate demand before anyone answered it — cancel the tasks it
        materialised.  Only unstarted (PENDING / team-PROPOSED) tasks are
        cancelled: an ACTIVE team is already working and its answer will
        simply land in a relation nothing derives from any more."""
        identities = {(r.predicate, r.key_values) for r in requests}
        for status in (TaskStatus.PENDING, TaskStatus.PROPOSED):
            for task in self.pool.by_status(status, project_id):
                if task.kind is not TaskKind.OPEN_FILL:
                    continue
                if (task.predicate, task.key_values) not in identities:
                    continue
                if task.team_id is not None:
                    self.teams.set_status(task.team_id, TeamStatus.DISSOLVED)
                    self.events.publish(
                        "team.dissolved", self.now,
                        team_id=task.team_id, task_id=task.id,
                        reason="demand retracted",
                    )
                    self.pool.clear_team(task.id)
                self.pool.set_status(task.id, TaskStatus.CANCELLED)
                self.controller.clear_dirty(task.id)
                self.events.publish(
                    "task.cancelled", self.now,
                    task_id=task.id, project_id=project_id,
                    predicate=task.predicate,
                    key=list(task.key_values),
                    reason="demand retracted",
                )

    # -- eligibility (full + delta-driven incremental) ----------------------
    def _mark_worker_dirty(self, worker_id: str) -> None:
        """A worker's factors/facts changed: the constraint-screen path
        re-checks exactly this worker on the next round."""
        self._dirty_workers.add(worker_id)

    def _eligibility_deltas(
        self, processor: CyLogProcessor
    ) -> dict[str, tuple[set[str], set[str]]]:
        """Drain the processor's change sets into per-predicate worker-id
        transitions: ``name -> (now eligible, no longer eligible)``.

        The engine reports tuple-level deltas; a worker leaves the eligible
        set only when *no* supporting tuple with her id remains (checked
        through the relation's key index, one O(1) probe per removed row).
        """
        known = self.workers
        transitions: dict[str, tuple[set[str], set[str]]] = {}
        for name, (added_rows, removed_rows) in processor.drain_deltas().items():
            if name != "eligible" and not name.startswith("eligible_"):
                continue
            added = {row[0] for row in added_rows if row and row[0] in known}
            relation = processor.engine.store.maybe(name)
            removed = {
                row[0]
                for row in removed_rows
                if row
                and row[0] not in added
                and (relation is None or not relation.lookup((0,), (row[0],)))
            }
            transitions[name] = (added, removed)
        return transitions

    def _refresh_eligibility(self, incremental: bool) -> None:
        """Bring the Eligible relationship up to date for every pending root
        task — completely, or by applying the engine-reported change sets
        (plus the dirty-worker set for constraint-screen projects)."""
        pending = self.pool.pending_root_tasks()
        n_workers = len(self.workers)
        round_no = self.stats.rounds
        recording = _RoundRecording() if self._round_delta_listeners else None
        self._recording = recording
        # Drain every project's change feed exactly once per round, whether
        # or not the round consumes it incrementally — the feed is per-run
        # state, not per-task state.
        deltas = {
            project_id: self._eligibility_deltas(processor)
            for project_id, processor in self._processors.items()
        }
        if not incremental:
            for task in pending:
                self._ensure_eligibility(task)
                self._task_needs_full.discard(task.id)
                self._task_round[task.id] = round_no
                if recording is not None:
                    recording.full.add(task.id)
                self.stats.eligibility_tasks_full += 1
                self.stats.eligibility_pairs_checked += n_workers
            self._notify_round_deltas(recording, round_no)
            self._dirty_workers.clear()
            return
        no_change: dict[str, tuple[set[str], set[str]]] = {}
        for task in pending:
            if (
                task.id in self._task_needs_full
                or self._task_round.get(task.id) != round_no - 1
            ):
                # Never-seen task, updated constraints, or a task that sat
                # outside the pending pool and missed drained change feeds:
                # the whole eligible set must be re-derived.
                self._task_needs_full.discard(task.id)
                self._ensure_eligibility(task)
                if recording is not None:
                    recording.full.add(task.id)
                self.stats.eligibility_tasks_full += 1
                self.stats.eligibility_pairs_checked += n_workers
            else:
                name = self._eligible_predicate(task)
                transitions = deltas.get(task.project_id, no_change)
                if self._dirty_workers or name in transitions:
                    self._apply_incremental_eligibility(
                        task, name, transitions, n_workers
                    )
                else:
                    # Caught up, and nothing this round can move its set.
                    self.stats.eligibility_tasks_skipped += 1
                    self.stats.eligibility_pairs_skipped += n_workers
            self._task_round[task.id] = round_no
        self._notify_round_deltas(recording, round_no)
        self._dirty_workers.clear()

    def _notify_round_deltas(
        self, recording: _RoundRecording | None, round_no: int
    ) -> None:
        self._recording = None
        if recording is None:
            return
        payload = RoundDeltas(
            round_no=round_no,
            time=self.now,
            eligible_added={
                task_id: frozenset(workers)
                for task_id, workers in recording.added.items()
            },
            eligible_removed={
                task_id: frozenset(workers)
                for task_id, workers in recording.removed.items()
            },
            dirty_workers=frozenset(self._dirty_workers),
            full_tasks=frozenset(recording.full),
        )
        for listener in self._round_delta_listeners:
            listener(payload)

    def _apply_incremental_eligibility(
        self,
        task: Task,
        name: str | None,
        transitions: dict[str, tuple[set[str], set[str]]],
        n_workers: int,
    ) -> None:
        """Apply one round's change sets to one task's Eligible rows;
        ``name`` is the task's :meth:`_eligible_predicate`."""
        recording = self._recording
        if name is None:
            # Constraint screen: only dirtied workers can have changed.
            dirty = self._dirty_workers
            if not dirty:
                self.stats.eligibility_tasks_skipped += 1
                self.stats.eligibility_pairs_skipped += n_workers
                return
            project = self.projects.get(task.project_id)
            for worker_id in sorted(dirty):
                worker = self.workers.maybe(worker_id)
                if worker is not None and project.constraints.member_eligible(worker):
                    if (
                        self.ledger.mark_eligible(worker_id, task.id, self.now)
                        and recording is not None
                    ):
                        recording.added.setdefault(task.id, set()).add(worker_id)
                elif self.ledger.revoke_eligibility(worker_id, task.id):
                    self.stats.eligibility_revoked += 1
                    if recording is not None:
                        recording.removed.setdefault(task.id, set()).add(worker_id)
            self.stats.eligibility_tasks_partial += 1
            self.stats.eligibility_pairs_checked += len(dirty)
            self.stats.eligibility_pairs_skipped += max(0, n_workers - len(dirty))
            return
        added, removed = transitions.get(name, (set(), set()))
        # Dirty workers not covered by the engine's delta still need one
        # membership probe: a worker may register *after* the facts that
        # make her eligible were derived.
        stale = self._dirty_workers - added - removed
        changed = len(added) + len(removed) + len(stale)
        if not changed:
            self.stats.eligibility_tasks_skipped += 1
            self.stats.eligibility_pairs_skipped += n_workers
            return
        for worker_id in sorted(added):
            if (
                self.ledger.mark_eligible(worker_id, task.id, self.now)
                and recording is not None
            ):
                recording.added.setdefault(task.id, set()).add(worker_id)
        for worker_id in sorted(removed):
            if self.ledger.revoke_eligibility(worker_id, task.id):
                self.stats.eligibility_revoked += 1
                if recording is not None:
                    recording.removed.setdefault(task.id, set()).add(worker_id)
        if stale:
            relation = self._processors[task.project_id].engine.store.maybe(name)
            for worker_id in sorted(stale):
                present = relation is not None and bool(
                    relation.lookup((0,), (worker_id,))
                )
                if present:
                    if (
                        self.ledger.mark_eligible(worker_id, task.id, self.now)
                        and recording is not None
                    ):
                        recording.added.setdefault(task.id, set()).add(worker_id)
                elif self.ledger.revoke_eligibility(worker_id, task.id):
                    self.stats.eligibility_revoked += 1
                    if recording is not None:
                        recording.removed.setdefault(task.id, set()).add(worker_id)
        self.stats.eligibility_tasks_partial += 1
        self.stats.eligibility_pairs_checked += changed
        self.stats.eligibility_pairs_skipped += max(0, n_workers - changed)

    def _eligible_predicate(self, task: Task) -> str | None:
        """``eligible_<predicate>/1`` wins over ``eligible/1``; ``None``
        means the constraint screen applies."""
        key = (task.project_id, task.predicate)
        if key in self._eligible_names:
            return self._eligible_names[key]
        processor = self._processors.get(task.project_id)
        if processor is None:
            return None
        idb = processor.compiled.program.idb_predicates()
        name = next(
            (n for n in (f"eligible_{task.predicate}", "eligible") if n in idb), None
        )
        self._eligible_names[key] = name
        return name

    def _ensure_eligibility(self, task: Task) -> None:
        """Re-derive the complete Eligible set for one pending root task:
        mark newly eligible workers, retract stale system-derived rows."""
        project = self.projects.get(task.project_id)
        processor = self._processors.get(task.project_id)
        eligible_ids = self._eligible_worker_ids(project, processor, task)
        eligible = set(eligible_ids)
        for worker_id in eligible_ids:
            self.ledger.mark_eligible(worker_id, task.id, self.now)
        for worker_id in self.ledger.workers_with_status(
            task.id, RelationshipStatus.ELIGIBLE
        ):
            if worker_id not in eligible and self.ledger.revoke_eligibility(
                worker_id, task.id
            ):
                self.stats.eligibility_revoked += 1

    def _cross_check_eligibility(self) -> None:
        """Engine-diff-style oracle: recompute every pending root task's
        eligible set from scratch and verify the incrementally maintained
        ledger agrees.  A worker is *missing* when the full recompute would
        have marked her and the ledger has no relationship at all; a row is
        *stale* when the ledger says Eligible but the recompute disagrees."""
        self.stats.cross_checks += 1
        for task in self.pool.pending_root_tasks():
            project = self.projects.get(task.project_id)
            processor = self._processors.get(task.project_id)
            expected = set(self._eligible_worker_ids(project, processor, task))
            missing = {
                worker_id
                for worker_id in expected
                if self.ledger.status(worker_id, task.id) is None
            }
            stale = (
                set(
                    self.ledger.workers_with_status(
                        task.id, RelationshipStatus.ELIGIBLE
                    )
                )
                - expected
            )
            if missing or stale:
                raise PlatformError(
                    f"incremental eligibility diverged for task {task.id}: "
                    f"missing={sorted(missing)} stale={sorted(stale)}"
                )

    def _prune_round_state(self) -> None:
        """Drop round cursors for tasks that can no longer return to the
        pending pool (completed/cancelled/expired)."""
        pool = self.pool
        for task_id in [t for t in self._task_round if not pool.get(t).is_open]:
            del self._task_round[task_id]
            self.controller.clear_dirty(task_id)
        self._task_needs_full = {
            t for t in self._task_needs_full if pool.get(t).is_open
        }

    def _eligible_worker_ids(
        self,
        project: Project,
        processor: CyLogProcessor | None,
        task: Task,
    ) -> list[str]:
        """CyLog-driven eligibility: ``eligible_<predicate>/1`` wins over
        ``eligible/1``; otherwise the constraint screen applies."""
        name = self._eligible_predicate(task)
        if name is not None:
            return sorted(
                value[0]
                for value in processor.facts(name)
                if value and value[0] in self.workers
            )
        return [
            worker.id
            for worker in self.workers.all()
            if project.constraints.member_eligible(worker)
        ]

    def _attempt_assignment(self, project: Project, task: Task) -> AssignmentOutcome:
        outcome = self.controller.try_assign(
            task, project.constraints, project.assignment_algorithm, self.now
        )
        if outcome.suggestion is not None:
            existing = self._suggestions.setdefault(project.id, [])
            if not any(s.task_id == task.id for s in existing):
                existing.append(outcome.suggestion)
        return outcome

    def _on_task_active(self, event: Event) -> None:
        """Every member undertook the task: start the collaboration scheme."""
        task = self.pool.get(event["task_id"])
        project = self.projects.get(task.project_id)
        team = self.teams.get(event["team_id"])
        scheme = self.schemes.create(project.scheme.value)
        document = Document(self._doc_ids.next(), title=task.instruction)
        required_skills = tuple(r.skill for r in project.constraints.skills)

        def worker_skill(worker_id: str) -> float:
            factors = self.workers.get(worker_id).factors
            if required_skills:
                return factors.mean_skill(required_skills)
            return factors.reliability

        ctx = CollaborationContext(
            root_task=task,
            team=team,
            pool=self.pool,
            events=self.events,
            document=document,
            options=dict(project.options),
            worker_skill=worker_skill,
        )
        self._active_schemes[task.id] = (scheme, ctx)
        scheme.start(ctx, self.now)

    def _finish_collaboration(
        self, root_task: Task, team_result: TeamResult, last_micro_result: dict
    ) -> None:
        root_task = self.pool.get(root_task.id)
        quality = float(
            last_micro_result.get("quality", team_result.payload.get("quality", 1.0))
        )
        if root_task.predicate is not None:
            processor = self.processor(root_task.project_id)
            fill_values = team_result.fill_values
            if fill_values is None:
                raise CollaborationError(
                    f"task {root_task.id} fills predicate "
                    f"{root_task.predicate!r} but produced no fill values"
                )
            decl = processor.compiled.open_decls[root_task.predicate]
            key_mapping = dict(zip(decl.key, root_task.key_values))
            processor.supply_fact(root_task.predicate, key_mapping, fill_values)
        self.coordinator.record(team_result, quality, self.now)
        # Recording reinforced the affinity between the team's members (a
        # team of two or more).  Assigners read affinity only between a
        # task's INTERESTED candidates, so only the pending tasks where a
        # member is INTERESTED face a changed formation problem; re-arm
        # those, and a one-member team re-arms nothing.
        members = self.teams.get(team_result.team_id).members
        if len(members) > 1:
            for member in members:
                for task_id in self.ledger.tasks_with_status(
                    member, RelationshipStatus.INTERESTED
                ):
                    if self.pool.get(task_id).status is TaskStatus.PENDING:
                        self.controller.mark_dirty(task_id)
        del self._active_schemes[root_task.id]
        if root_task.predicate is not None:
            # New facts may demand new tasks immediately.
            self.processor(root_task.project_id).run()

    def close(self) -> None:
        """Flush and close the storage backend (a no-op with the default
        memory backend)."""
        self.db.close()

    # -- observability ------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Cheap structural summary used by pages, examples and benches."""
        return {
            "time": self.now,
            "workers": len(self.workers),
            "projects": len(self.projects),
            "tasks": self.pool.counts(),
            "teams": len(self.teams),
            "relationships": len(self.ledger),
            "affinity_pairs": len(self.affinity),
            "storage_backend": (
                self.db.backend.name if self.db.backend is not None else "memory"
            ),
        }

    def stats_summary(self) -> dict[str, dict[str, int]]:
        """Cumulative serving-path work counters: the platform round's
        dirty-tracking effectiveness plus the storage query cache."""
        return {
            "platform": self.stats.as_dict(),
            "query_cache": self.db.query_cache.stats.as_dict(),
        }

    def collect_stats(self, collector) -> None:
        """Feed every counter into a :class:`repro.metrics.Collector`
        (``EngineStats``-style; call once per collector)."""
        self.stats.to_collector(collector)
        self.db.query_cache.stats.to_collector(collector)
        for project_id, processor in self._processors.items():
            processor.stats.to_collector(
                collector, prefix=f"cylog_engine.{project_id}"
            )
