"""Where the benchmark looks inside the program: spans and counters.

Spans wrap public callables at layer boundaries (the private
``PlatformServer._dispatch`` is the one exception: it is the server's
request handler, the only seam between HTTP framing and the handler).
Counters come from the public stats objects: ``PlatformStats``,
``EngineStats``, ``CacheStats`` and ``ServingStats`` (what ``GET /stats``
serves), plus ``Table.version`` sums (rows written) and WAL bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from measure import Tracer, wrap

#: Spans whose every outermost call duration is kept (matched to ops).
KEEP = ("serving.dispatch", "serving.apply_ops")
#: Scopes that count the spans run inside them (queries per read).
SCOPES = ("forms.worker_page", "forms.task_ui")

STORAGE_WRITES = ("storage.insert", "storage.update", "storage.delete")
FACT_WRITES = ("cylog.add_facts", "cylog.retract_facts", "cylog.supply_fact")


def new_tracer() -> Tracer:
    return Tracer(keep=KEEP, scopes=SCOPES)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; call before building the platform."""
    import repro.apps.common
    import repro.forms.task_ui
    import repro.forms.worker_page
    import repro.serving.server
    from repro.core import Crowd4U
    from repro.cylog import CyLogProcessor
    from repro.serving import PlatformServer
    from repro.sim import SimulationDriver
    from repro.storage import Database, Query

    import deploy

    table = (
        (SimulationDriver, "tick", "sim.tick"),
        (repro.apps.common, "populate", "sim.populate"),
        (deploy, "populate", "sim.populate"),
        (Crowd4U, "step", "core.step"),
        (Crowd4U, "register_worker", "core.register_worker"),
        (CyLogProcessor, "run", "cylog.run"),
        (CyLogProcessor, "add_facts", "cylog.add_facts"),
        (CyLogProcessor, "retract_facts", "cylog.retract_facts"),
        (CyLogProcessor, "supply_fact", "cylog.supply_fact"),
        (Database, "insert", "storage.insert"),
        (Database, "update", "storage.update"),
        (Database, "delete", "storage.delete"),
        (Query, "execute_cached", "storage.query"),
        (repro.forms.worker_page, "render_worker_page", "forms.worker_page"),
        (repro.forms.task_ui, "render_task_ui", "forms.task_ui"),
        (repro.serving.server, "apply_ops", "serving.apply_ops"),
        (PlatformServer, "_dispatch", "serving.dispatch"),
    )
    for owner, attr, name in table:
        wrap(tracer, owner, attr, name)


class WalMeter:
    """Bytes appended to ``wal.jsonl``, across snapshot compactions.

    The log is append-only between compactions and flushed per record,
    so its ``stat`` size just before each compaction plus its current
    size is every byte the deployment appended.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.log = Path(directory) / "wal.jsonl"
        self.compacted_bytes = 0
        self.compactions = 0

    def install(self) -> None:
        from repro.storage.backends.wal import WalBackend

        original = WalBackend.compact
        meter = self

        def compact(backend):
            meter.compacted_bytes += meter._size()
            meter.compactions += 1
            return original(backend)

        WalBackend.compact = compact

    def _size(self) -> int:
        try:
            return self.log.stat().st_size
        except FileNotFoundError:
            return 0

    def appended(self) -> int:
        return self.compacted_bytes + self._size()


def counters(platform, server=None, wal: WalMeter | None = None) -> dict[str, Any]:
    """One snapshot of every deterministic work counter."""
    engine: dict[str, int] = {}
    for project_id in sorted(p.id for p in platform.projects.all()):
        for name, value in platform.processor(project_id).stats.as_dict().items():
            engine[name] = engine.get(name, 0) + value
    db = platform.db
    storage = {"rows_written": sum(db.table(n).version for n in db.table_names)}
    if wal is not None:
        storage["wal_bytes"] = wal.appended()
        storage["wal_compactions"] = wal.compactions
    snapshot: dict[str, Any] = {
        "platform": platform.stats.as_dict(),
        "query_cache": db.query_cache.stats.as_dict(),
        "engine": engine,
        "storage": storage,
    }
    if server is not None:
        serving = {
            name: value
            for name, value in server.stats.as_dict().items()
            if isinstance(value, int)
        }
        serving["rejected"] = server.stats.rejected
        snapshot["serving"] = serving
    return snapshot


def per_layer(
    traced: dict[str, Any],
    delta: dict[str, Any],
    untraced: list[dict[str, Any]],
    drift: list[str],
    hash_dependent: bool,
) -> dict[str, tuple[float, str]]:
    """The per-layer budget of one traced run.

    ``delta`` is the traced run's counter change over its timed phase
    (warm-up and set-up excluded); ``untraced`` runs give the tracing
    overhead; ``drift`` lists counters that differed between runs and
    ``hash_dependent`` says whether end states differed by hash seed.
    """
    from statistics import median

    timed = traced["trace"]["timed"]
    setup = traced["trace"]["setup"]

    def span(name: str, phase: dict = timed) -> dict[str, float]:
        return phase["spans"].get(name, {"count": 0, "total": 0.0, "self": 0.0})

    def mean_ms(*names: str, phase: dict = timed, key: str = "total") -> float:
        count = sum(span(n, phase)["count"] for n in names)
        total = sum(span(n, phase)[key] for n in names)
        return 1000.0 * total / count if count else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    platform = delta["platform"]
    engine = delta["engine"]
    cache = delta["query_cache"]
    serving = delta.get("serving", {})
    rounds = platform["rounds"]
    reads = len(traced["latency"]["read"])
    writes = serving.get("admitted", len(traced["latency"]["write"]))

    http_gaps: list[float] = []
    wait_gaps: list[float] = []
    round_gaps: list[float] = list(traced.get("unattributed", ()))
    if "op_classes" in traced:
        # One connection: the n-th handler span serves the n-th op, and
        # the n-th apply_ops span applies the n-th write or round.
        dispatch = timed["calls"]["serving.dispatch"]
        applies = iter(timed["calls"]["serving.apply_ops"])
        if len(dispatch) != len(traced["per_op"]):
            raise ValueError("handler spans do not match the script's ops")
        for latency, handler, cls in zip(
            traced["per_op"], dispatch, traced["op_classes"]
        ):
            http_gaps.append(latency - handler)
            if cls == "round":
                round_gaps.append(latency - handler)
            if cls in ("write", "round"):
                applied = next(applies)
                if cls == "write":
                    wait_gaps.append(latency - applied)

    def p50_ms(samples: list[float]) -> float:
        return 1000.0 * median(samples) if samples else 0.0

    def overhead(cls: str) -> float:
        base = median(s for r in untraced for s in r["latency"][cls])
        return median(traced["latency"][cls]) / base

    query_in_reads = sum(
        count for key, count in timed["scoped"].items()
        if key.endswith(">storage.query")
    )
    ms, count, share = "ms", "count", "ratio"
    return {
        "serving.http_ms": (p50_ms(http_gaps), ms),
        "serving.write_wait_ms": (p50_ms(wait_gaps), ms),
        "serving.apply_ms": (
            1000.0 * ratio(span("serving.apply_ops")["total"], writes), ms
        ),
        "serving.rejected": (serving.get("rejected", 0), count),
        "serving.op_errors": (serving.get("op_errors", 0), count),
        "forms.worker_page_ms": (mean_ms("forms.worker_page"), ms),
        "forms.worker_page_self_ms": (mean_ms("forms.worker_page", key="self"), ms),
        "forms.task_ui_ms": (mean_ms("forms.task_ui"), ms),
        "storage.query_ms": (mean_ms("storage.query"), ms),
        "storage.queries_per_read": (ratio(query_in_reads, reads), count),
        "storage.cache_hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"] + cache["invalidations"]),
            share,
        ),
        "storage.cache_invalidations": (cache["invalidations"], count),
        "storage.cache_evictions": (cache["evictions"], count),
        "storage.write_ms": (mean_ms(*STORAGE_WRITES), ms),
        "storage.writes_per_op": (
            ratio(delta["storage"]["rows_written"], traced["ops"]), count
        ),
        "storage.wal_bytes_per_write": (
            ratio(delta["storage"].get("wal_bytes", 0), writes), "B"
        ),
        "cylog.run_ms": (mean_ms("cylog.run"), ms),
        "cylog.runs_per_round": (
            ratio(engine["full_runs"] + engine["incremental_runs"], rounds), count
        ),
        "cylog.fact_write_ms": (mean_ms(*FACT_WRITES), ms),
        "cylog.tuples_joined_per_round": (ratio(engine["tuples_joined"], rounds), count),
        "cylog.tuples_retracted_per_round": (
            ratio(engine["tuples_retracted"], rounds), count
        ),
        "cylog.index_hit_ratio": (
            ratio(engine["index_hits"], engine["index_hits"] + engine["full_scans"]),
            share,
        ),
        "core.step_ms": (mean_ms("core.step"), ms),
        "core.step_self_ms": (mean_ms("core.step", key="self"), ms),
        "core.eligibility_pairs_checked_per_round": (
            ratio(platform["eligibility_pairs_checked"], rounds), count
        ),
        "core.eligibility_skip_ratio": (
            ratio(
                platform["eligibility_pairs_skipped"],
                platform["eligibility_pairs_checked"]
                + platform["eligibility_pairs_skipped"],
            ),
            share,
        ),
        "core.assignment_attempts_per_round": (
            ratio(platform["assignment_attempts"], rounds), count
        ),
        "core.register_worker_ms": (mean_ms("core.register_worker", phase=setup), ms),
        "sim.tick_self_ms": (mean_ms("sim.tick", key="self"), ms),
        "sim.populate_s": (span("sim.populate", setup)["total"], "s"),
        "trace.unattributed_ms": (p50_ms(round_gaps), ms),
        "trace.overhead_ratio.round": (overhead("round"), share),
        "trace.overhead_ratio.read": (overhead("read"), share),
        "trace.overhead_ratio.write": (overhead("write"), share),
        "guard.counter_drift": (len(drift), count),
        "guard.hash_dependent_state": (int(hash_dependent), count),
    }
