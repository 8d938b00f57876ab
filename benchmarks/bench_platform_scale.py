"""E9 — platform scale: "more than 600,000 tasks have been performed" (§2).

The live platform's historical volume is simulated by pushing a large
micro-task stream through the task pool and relationship ledger; the
bench reports sustained throughput and extrapolates to the paper's 600k.

E9b adds the *steady-state serving* scenario: a large registered worker
pool, a project whose open tasks stay pending (recruiting), and a small
amount of per-round churn.  The dirty-tracked incremental round only
re-derives eligibility for the changed (task, worker) pairs, while the
full recompute walks the whole tasks × workers product every round; the
bench reports the per-round speedup and the storage query-cache hit rate
for repeated worker-page reads.
"""

import time
from dataclasses import replace

from repro.core import Crowd4U, HumanFactors, TeamConstraints
from repro.core.relationships import RelationshipLedger
from repro.core.tasks import TaskKind, TaskPool, TaskStatus
from repro.forms.worker_page import render_worker_page
from repro.metrics import format_stats_table, format_table
from repro.storage import Database

from fastmode import FAST, pick

N_TASKS = pick(60_000, 2_000)
N_WORKERS = 200

# E9b sizes: ≥5k workers in full mode per the acceptance target.
N_POOL = pick(5_000, 250)
N_SEGMENTS = 24
N_ROUNDS = pick(10, 3)
PAGE_READS_PER_ROUND = 5


def _run_stream(n_tasks: int):
    db = Database()
    pool = TaskPool(db)
    ledger = RelationshipLedger(db)
    worker_ids = [f"w{i:04d}" for i in range(N_WORKERS)]
    start = time.perf_counter()
    for index in range(n_tasks):
        task = pool.create(
            "history", TaskKind.CUSTOM, f"micro-task #{index}",
            assignee=worker_ids[index % N_WORKERS],
        )
        pool.complete(task.id, {"v": index})
    create_complete_s = time.perf_counter() - start
    start = time.perf_counter()
    for index in range(0, n_tasks, 10):
        worker = worker_ids[index % N_WORKERS]
        task_id = f"task{index:06d}"
        ledger.mark_eligible(worker, task_id)
        ledger.declare_interest(worker, task_id)
        ledger.undertake(worker, task_id)
        ledger.complete(worker, task_id)
    ledger_s = time.perf_counter() - start
    return pool, ledger, create_complete_s, ledger_s


def test_e9_platform_task_volume(benchmark, emit):
    pool, ledger, create_s, ledger_s = benchmark.pedantic(
        _run_stream, args=(N_TASKS,), rounds=1, iterations=1
    )
    throughput = N_TASKS / create_s
    rows = [
        ("micro-tasks created+completed", N_TASKS),
        ("throughput (tasks/s)", int(throughput)),
        ("time to 600k at this rate (s)", round(600_000 / throughput, 1)),
        ("relationship transitions", len(ledger) * 4),
        ("ledger transition rate (1/s)", int(len(ledger) * 4 / ledger_s)),
        ("completed tasks in pool", len(pool.by_status(TaskStatus.COMPLETED))),
    ]
    emit(format_table(
        ("measure", "value"), rows,
        title="E9 — task-pool and ledger throughput (600k-task platform claim)",
    ))
    assert len(pool) == N_TASKS


def _steady_state_platform(full: bool) -> Crowd4U:
    """A recruiting-phase deployment: N_POOL workers, N_SEGMENTS pending
    CyLog tasks whose teams never fill (nobody declares interest); its
    rounds are full recomputes when ``full``."""
    platform = Crowd4U(seed=3)
    # Register straight through the worker manager: the platform-level
    # affinity extension is O(existing workers) per registration and is not
    # what this scenario measures.  Facts reach the processor in one batch
    # when the project registers below.
    for index in range(N_POOL):
        platform.workers.register(
            f"w{index}",
            HumanFactors(
                languages={"fr": 0.9 if index % 2 == 0 else 0.1},
                region="tsukuba",
                skills={"translation": 0.6},
            ),
        )
    segments = " ".join(f'segment("s{i:03d}").' for i in range(N_SEGMENTS))
    source = (
        'open translate(seg: text, out: text) key (seg) asking "Translate {seg}".\n'
        f"{segments}\n"
        'eligible(W) :- worker_language(W, "fr", P), P >= 0.5.\n'
        "translated(S, T) :- segment(S), translate(S, T).\n"
    )
    platform.register_project(
        "subs", "req", source, constraints=TeamConstraints(min_size=3),
    )
    platform.step(full=full)  # generate the tasks + derive initial eligibility
    return platform


def _run_steady_rounds(platform: Crowd4U, full: bool = False) -> float:
    """Advance N_ROUNDS with one worker profile edit per round (churn that
    does not change the eligible set) and repeated reads of a hot set of
    worker pages; returns the elapsed wall-clock seconds."""
    worker_ids = platform.workers.ids()
    hot_pages = worker_ids[:PAGE_READS_PER_ROUND]
    for worker_id in hot_pages:  # warm the serving cache outside the timer
        render_worker_page(platform, worker_id)
    start = time.perf_counter()
    for round_index in range(N_ROUNDS):
        editor = worker_ids[(round_index * 7) % len(worker_ids)]
        factors = platform.workers.get(editor).factors
        platform.update_worker_factors(
            editor, replace(factors, region=f"round-{round_index}")
        )
        platform.step(full=full)
        for worker_id in hot_pages:
            render_worker_page(platform, worker_id)
    return time.perf_counter() - start


def test_e9b_incremental_steady_state(benchmark, emit):
    incremental = _steady_state_platform(full=False)
    full = _steady_state_platform(full=True)
    inc_s = benchmark.pedantic(
        _run_steady_rounds, args=(incremental,), rounds=1, iterations=1
    )
    full_s = _run_steady_rounds(full, full=True)
    speedup = full_s / inc_s if inc_s else float("inf")
    stats = incremental.stats
    cache = incremental.db.query_cache.stats
    pairs_total = stats.eligibility_pairs_checked + stats.eligibility_pairs_skipped
    rows = [
        ("workers", N_POOL),
        ("pending tasks", N_SEGMENTS),
        ("steady rounds", N_ROUNDS),
        ("full recompute (s)", round(full_s, 4)),
        ("incremental (s)", round(inc_s, 4)),
        ("per-round speedup", round(speedup, 1)),
        ("eligibility pairs skipped", stats.eligibility_pairs_skipped),
        ("eligibility pairs checked", stats.eligibility_pairs_checked),
        ("pairs skipped (%)",
         round(100 * stats.eligibility_pairs_skipped / pairs_total, 1)
         if pairs_total else 0.0),
        ("assignment attempts skipped", stats.assignments_skipped),
        ("query-cache hits", cache.hits),
        ("query-cache misses+stale", cache.misses + cache.invalidations),
    ]
    engine_stats = {}
    for project_id, processor in incremental._processors.items():
        engine_stats[f"cylog_engine[{project_id}]"] = processor.stats.as_dict()
    emit(format_table(
        ("measure", "value"), rows,
        title="E9b — steady-state platform round: incremental vs full recompute",
    ) + "\n" + format_stats_table(
        {
            "platform": stats.as_dict(),
            "query_cache": cache.as_dict(),
            **engine_stats,
        },
        title="E9b — unified serving-path counters (platform / cache / engine)",
        skip_zero=True,
    ))
    # Both modes must agree on the persistent relationship state.
    assert sorted(
        (r["worker_id"], r["task_id"], r["status"])
        for r in incremental.db.table("relationship").rows()
    ) == sorted(
        (r["worker_id"], r["task_id"], r["status"])
        for r in full.db.table("relationship").rows()
    )
    assert stats.eligibility_pairs_skipped > 0
    assert cache.hits > 0
    if not FAST:
        assert speedup >= 5.0, f"expected ≥5x per-round speedup, got {speedup:.1f}x"
