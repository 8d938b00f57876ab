"""Process-based evaluation: GIL-free workers holding replica stores.

Per-shard evaluation tasks are pure Python joins, so only separate
interpreters evaluate them in parallel.  The :class:`ProcessExecutor`
runs the engine's tasks in worker *processes*, through the same runner
the inline path uses (:func:`~repro.cylog.engine.run_rule_task`):

* Each worker holds a **replica** of the engine's relation store (a plain
  :class:`~repro.cylog.engine.RelationStore` — lookups over the same
  facts return the same row sets as any sharded layout), pruned to the
  partitions its tasks probe, plus the compiled join plans, installed
  once per full run by a ``reset`` message.
* Between dispatches the engine streams its own mutation ledger — the
  same net deltas it already tracks for incremental evaluation, now
  partitioned by (relation, primary shard) at mutation time
  (:class:`~repro.cylog.sharding.PartitionedLedger`) — as ``sync``
  messages, so replicas never re-ship the whole store.
* Tasks travel as **picklable descriptors** ``(rule index, plan
  position, delta shard, delta rows)`` — the rows are the shard-aligned
  delta partitions produced by
  :func:`~repro.cylog.sharding.split_rows_by_shard`, and the plan is
  referenced by its position in the already-shipped compiled program, so
  per-task payloads stay delta-sized.
* Results (derived rows + support keys + a scratch
  :class:`~repro.cylog.engine.EngineStats`) come back tagged with the
  submission index and are returned **in submission order**, so the
  engine's serial merge produces bit-identical fixpoints, deltas and
  derivation counters at any worker count, and equal to the inline
  (serial) engine's.

Each worker *subscribes* to exactly the (relation, primary shard)
partitions its assigned task classes can probe
(:func:`~repro.cylog.sharding.probe_partitions`).  Tasks are routed by a
content hash of their (rule, position, delta shard) class so the same
class keeps landing on the same worker, sync messages are sliced to each
worker's subscriptions, and when the planner routes a new shape to a
worker the missing partitions are *backfilled* lazily from the engine's
authoritative store.  Pruning is computed from the same compiled plans
the tasks execute, so every probe a task performs sees exactly the rows
the engine's own store would serve; the shard-diff CI oracle gates the
process engine against the single store.

Every connection is a FIFO pipe, so a ``sync`` sent before a ``tasks``
message is always applied first; no acknowledgement round-trips are
needed.  Workers are spawned lazily (``fork`` where available, falling
back to ``spawn``) and torn down by ``close()``.  A worker death
mid-dispatch raises :class:`ProcessPoolBrokenError` after closing the
pool; the engine reacts by running the same tasks inline and demoting
itself to serial evaluation (its own store was authoritative all along).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import traceback
from typing import Any, Callable, Mapping, Sequence

from repro.cylog.engine import RelationStore, _relation_from, run_rule_task
from repro.cylog.indexes import stable_hash
from repro.cylog.sharding import probe_partitions

Tuple_ = tuple[Any, ...]
#: One shipped task: (rule index, join-plan position of the delta atom —
#: ``None`` for a full round-0 evaluation — the delta shard the partition
#: was split on (``None`` when unsplit), and the delta partition rows).
TaskDescriptor = tuple[int, "int | None", "int | None", "tuple[Tuple_, ...] | None"]
#: (predicate, primary shard) — the unit of subscription, sync slicing
#: and backfill.
PartitionKey = tuple[str, int]


class ProcessPoolBrokenError(RuntimeError):
    """A worker process died mid-dispatch and the pool was closed.

    Replica state streamed to the dead pool is unrecoverable, so the
    executor refuses further dispatches until a ``reset()`` (an engine
    full run).  The engine catches exactly this error to fall back to
    inline serial evaluation without losing any state — its own store is
    the authority; replicas were read-only mirrors.
    """


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class _WorkerState:
    """Everything one worker process knows: plans + replica store."""

    __slots__ = ("compiled", "store")

    def __init__(self, compiled, base_arities: Mapping[str, int]) -> None:
        self.compiled = compiled
        self.store = RelationStore(compiled.index_specs())
        # The baseline ships arities instead of rows: the relations exist
        # (empty) from the start and partitions arrive by backfill, so
        # relation *existence* — which probe bookkeeping can observe —
        # matches the engine store exactly.
        for predicate, arity in base_arities.items():
            self.store.get(predicate, arity)
        # Mirror the engine's full run: head relations exist (empty) from
        # the start, so a probe against a not-yet-derived head counts an
        # index hit exactly as it does on the engine's store — keeping the
        # scratch counters byte-identical to the inline path's.
        for rule in compiled.rules:
            self.store.get(rule.rule.head.predicate, rule.rule.head.arity)


def _apply_sync(state: _WorkerState, adds: dict, removes: dict) -> None:
    """Apply one net change set, keyed by (predicate, shard) partition, to
    the replica (removals first — a net ledger never holds the same row on
    both sides)."""
    for (predicate, _), rows in removes.items():
        relation = state.store.maybe(predicate)
        if relation is not None:
            for row in rows:
                relation.discard(row)
    for (predicate, _), rows in adds.items():
        if not rows:
            continue
        relation = state.store.get(predicate, len(next(iter(rows))))
        for row in rows:
            relation.add(row)


def _apply_backfill(state: _WorkerState, predicate: str, arity: int, rows) -> None:
    """Install one authoritative partition (the partition was never
    subscribed before, so the replica holds none of its rows)."""
    relation = state.store.get(predicate, arity)
    for row in rows:
        relation.add(row)


def _run_descriptor(
    state: _WorkerState,
    rule_index: int,
    position: int | None,
    _delta_shard: int | None,
    rows: tuple[Tuple_, ...] | None,
):
    """Evaluate one task descriptor on the replica store: rebuild the
    shipped delta rows as a relation and hand them to the engine's task
    runner."""
    delta = None
    if position is not None:
        literal = state.compiled.rules[rule_index].join_plan.steps[position].literal
        delta = _relation_from(set(rows), state.store.maybe(literal.predicate))
    return run_rule_task(state.compiled, state.store, rule_index, position, delta)


def _worker_main(conn) -> None:
    """Worker loop: apply resets/syncs/backfills in arrival order,
    evaluate tasks.

    Messages travel as raw pickled bytes (``send_bytes``/``recv_bytes``):
    the parent serialises the baseline and plan swaps *once* and writes
    the same bytes to every worker pipe, instead of re-pickling per worker.
    """
    state: _WorkerState | None = None
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:  # parent went away
            return
        kind = message[0]
        try:
            if kind == "stop":
                return
            if kind == "reset":
                state = _WorkerState(message[1], message[2])
            elif kind == "sync":
                if state is not None:
                    _apply_sync(state, message[1], message[2])
            elif kind == "replan":
                if state is not None:
                    state.compiled = message[1]
            elif kind == "backfill":
                if state is None:
                    raise RuntimeError(
                        "process worker received backfill before reset"
                    )
                _apply_backfill(state, message[1], message[2], message[3])
            elif kind == "tasks":
                if state is None:
                    raise RuntimeError("process worker received tasks before reset")
                results = [
                    (index, *_run_descriptor(state, *descriptor))
                    for index, descriptor in message[1]
                ]
                conn.send_bytes(pickle.dumps(("results", results), -1))
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown worker message {kind!r}")
        except BaseException:
            try:
                conn.send_bytes(
                    pickle.dumps(("error", traceback.format_exc()), -1)
                )
            except (BrokenPipeError, OSError):  # pragma: no cover
                return


class ProcessExecutor:
    """Fan evaluation tasks out to worker processes with replica stores.

    The engine talks to it through four calls: :meth:`reset` installs a
    new baseline (compiled program, base-fact arities, shard layout and
    the authoritative partition provider), :meth:`sync` queues the
    engine's net store changes since the last dispatch (returning the
    canonical payload size for telemetry), :meth:`replan` queues a
    mid-stream plan swap, and :meth:`run_rule_tasks` ships task
    descriptors and returns their results in submission order.  Workers
    are spawned on the first dispatch; pending syncs and replans are
    replayed to them through the FIFO pipe before any task, so a replica
    is always current when it evaluates.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.workers = max_workers
        self._ctx = _mp_context()
        self._procs: list = []
        self._conns: list = []
        self._baseline: bytes | None = None
        #: Messages queued since the last dispatch, in order: ("sync",
        #: adds, removes) and ("replan", blob).  Order matters — a replan
        #: between two syncs must reach workers between them.
        self._pending: list[tuple] = []
        self._compiled = None
        self._n_shards = 1
        self._partition_provider: Callable[[str, int], Any] | None = None
        #: Per-worker subscription sets.  Invariant: a subscribed partition
        #: is fully current on that worker — every sync is sliced against
        #: the subscriptions and shipped at every dispatch, and a partition
        #: is only added after an authoritative backfill in the same pipe
        #: batch.
        self._subscribed: list[set[PartitionKey]] = []
        #: Rows currently resident in each worker's replica (exact: the
        #: ledger only ships truly-new adds and truly-present removes).
        self._replica_rows: list[int] = []
        self._telemetry = {
            "sync_bytes_shipped": 0,
            "sync_rows_shipped": 0,
            "replica_backfills": 0,
            "backfill_rows": 0,
            "bytes_to_workers": 0,
        }
        #: Set by close() (and by a mid-dispatch worker death).  A closed
        #: executor refuses to dispatch: respawning from the last baseline
        #: would silently lose every sync already streamed to the old
        #: workers.  A fresh reset() re-opens it — the new baseline plus
        #: later syncs fully determine replica state again.
        self._closed = False
        self._lock = threading.Lock()

    # -- engine-facing protocol -------------------------------------------
    def reset(
        self,
        compiled,
        base_arities: Mapping[str, int],
        *,
        partition_provider: Callable[[str, int], Any],
        n_shards: int = 1,
    ) -> None:
        """Install a new baseline (full run): plans + base-fact arities.

        Rows reach each worker later, as its subscriptions demand them:
        ``partition_provider(predicate, shard)`` returns the authoritative
        ``(arity, rows)`` of one partition (``None`` when the relation does
        not exist) at dispatch time.
        """
        self._compiled = compiled
        self._n_shards = n_shards
        self._partition_provider = partition_provider
        # Serialised once; the same bytes go to every (current and future)
        # worker pipe.
        self._baseline = pickle.dumps(("reset", compiled, dict(base_arities)), -1)
        self._pending.clear()
        self._subscribed = [set() for _ in range(self.workers)]
        self._replica_rows = [0] * self.workers
        self._closed = False
        for conn in self._conns:
            try:
                conn.send_bytes(self._baseline)
            except (BrokenPipeError, OSError):
                # A worker died between dispatches.  The fresh baseline
                # (plus later syncs) fully determines replica state, so
                # the pool can simply be discarded and respawned lazily.
                self._discard_pool()
                break
            self._telemetry["bytes_to_workers"] += len(self._baseline)

    def sync(self, adds: dict, removes: dict) -> int:
        """Queue one net change set, keyed by (predicate, shard) partition
        (what the engine's :class:`~repro.cylog.sharding.PartitionedLedger`
        produces); shipped at the next dispatch, sliced to each worker's
        subscriptions.  Returns the canonical payload size in bytes — a
        pure function of the change set, independent of worker count
        (per-worker shipping is telemetry).
        """
        if not adds and not removes:
            return 0
        self._pending.append(("sync", adds, removes))
        return len(pickle.dumps(("sync", adds, removes), -1))

    def replan(self, compiled) -> None:
        """Queue a mid-stream plan swap (write-aware exchange costing):
        workers keep their stores and swap the compiled program, exactly
        like the engine does."""
        self._compiled = compiled
        self._pending.append(("replan", pickle.dumps(("replan", compiled), -1)))

    def telemetry(self) -> dict:
        """Cumulative executor-side counters (see module docstring) plus
        the exact per-worker resident row counts."""
        counters = dict(self._telemetry)
        counters["replica_rows"] = tuple(self._replica_rows)
        return counters

    def run_rule_tasks(self, descriptors: Sequence[TaskDescriptor]) -> list:
        """Evaluate descriptors on the pool; results in submission order."""
        self._ensure_pool()
        per_worker: list[list[tuple[int, TaskDescriptor]]] = [
            [] for _ in self._conns
        ]
        for index, descriptor in enumerate(descriptors):
            per_worker[self._assign(descriptor)].append((index, descriptor))
        # Every worker first drains the queued syncs/replans (sliced to
        # its subscriptions) so replicas advance in lockstep, then
        # receives backfills for newly needed partitions, then its tasks —
        # one FIFO pipe, no acknowledgement round-trips.  A send to a dead
        # worker breaks the pipe; replica state streamed to the old pool
        # is unrecoverable, so the pool closes.
        busy = []
        try:
            for worker_id, conn in enumerate(self._conns):
                self._ship_pending(worker_id, conn)
            self._pending.clear()
            for worker_id, (conn, batch) in enumerate(zip(self._conns, per_worker)):
                if not batch:
                    continue
                self._ship_backfills(worker_id, conn, (d for _, d in batch))
                payload = pickle.dumps(("tasks", batch), -1)
                conn.send_bytes(payload)
                self._telemetry["bytes_to_workers"] += len(payload)
                busy.append(conn)
        except (BrokenPipeError, OSError):
            self.close()
            raise ProcessPoolBrokenError(
                "process worker died mid-dispatch; executor closed "
                "(a full run / reset() re-opens it)"
            ) from None
        results: list = [None] * len(descriptors)
        errors: list[str] = []
        # Every busy pipe is drained even when one worker reports an
        # error — an unread reply would desync the FIFO protocol and hand
        # the *next* dispatch a stale result batch.
        for conn in busy:
            try:
                reply = pickle.loads(conn.recv_bytes())
            except EOFError:
                self.close()  # a dead worker leaves replicas unrecoverable
                raise ProcessPoolBrokenError(
                    "process worker died mid-dispatch; executor closed "
                    "(a full run / reset() re-opens it)"
                ) from None
            if reply[0] == "error":
                errors.append(reply[1])
            else:
                for index, derived, scratch in reply[1]:
                    results[index] = (derived, scratch)
        if errors:
            raise RuntimeError("process worker failed:\n" + "\n".join(errors))
        return results

    # -- subscriptions -----------------------------------------------------
    def _assign(self, descriptor: TaskDescriptor) -> int:
        """Worker for one task: a stable content hash of the task *class*
        (rule, position, delta shard), so a class keeps hitting the worker
        already subscribed to its partitions."""
        rule_index, position, delta_shard, _ = descriptor
        return stable_hash((rule_index, position, delta_shard)) % len(self._conns)

    def _ship_pending(self, worker_id: int, conn) -> None:
        """Drain queued syncs/replans to one worker, in queue order."""
        subscribed = self._subscribed[worker_id]
        for entry in self._pending:
            if entry[0] == "replan":
                conn.send_bytes(entry[1])
                self._telemetry["bytes_to_workers"] += len(entry[1])
                continue
            _, adds, removes = entry
            sliced_adds = {k: v for k, v in adds.items() if k in subscribed}
            sliced_removes = {k: v for k, v in removes.items() if k in subscribed}
            if not sliced_adds and not sliced_removes:
                continue
            payload = pickle.dumps(("sync", sliced_adds, sliced_removes), -1)
            conn.send_bytes(payload)
            added = sum(len(rows) for rows in sliced_adds.values())
            removed = sum(len(rows) for rows in sliced_removes.values())
            self._telemetry["sync_bytes_shipped"] += len(payload)
            self._telemetry["bytes_to_workers"] += len(payload)
            self._telemetry["sync_rows_shipped"] += added + removed
            self._replica_rows[worker_id] += added - removed

    def _ship_backfills(self, worker_id: int, conn, descriptors) -> None:
        """Subscribe ``worker_id`` to every partition its new tasks can
        probe, backfilling each missing one authoritatively from the
        engine store through the pipe."""
        assert self._compiled is not None
        needed: set[PartitionKey] = set()
        task_classes = {descriptor[:3] for descriptor in descriptors}
        for rule_index, position, delta_shard in task_classes:
            needed |= probe_partitions(
                self._compiled, self._n_shards, rule_index, position, delta_shard
            )
        subscribed = self._subscribed[worker_id]
        missing = sorted(needed - subscribed)
        for key in missing:
            self._backfill(worker_id, conn, key)
        subscribed.update(missing)

    def _backfill(self, worker_id: int, conn, key: PartitionKey) -> None:
        predicate, shard = key
        partition = self._partition_provider(predicate, shard)  # type: ignore[misc]
        if partition is None:
            return  # relation absent on the engine store too
        arity, rows = partition
        payload = pickle.dumps(("backfill", predicate, arity, rows), -1)
        conn.send_bytes(payload)
        self._telemetry["replica_backfills"] += 1
        self._telemetry["backfill_rows"] += len(rows)
        self._telemetry["bytes_to_workers"] += len(payload)
        self._replica_rows[worker_id] += len(rows)

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> None:
        with self._lock:
            if self._procs:
                return
            if self._closed:
                raise RuntimeError(
                    "ProcessExecutor was closed; syncs streamed to the old "
                    "workers are gone, so only a fresh reset() (an engine "
                    "full run) may re-open it"
                )
            if self._baseline is None:
                raise RuntimeError("ProcessExecutor dispatched before reset()")
            for _ in range(self.workers):
                parent_conn, child_conn = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                parent_conn.send_bytes(self._baseline)
                self._telemetry["bytes_to_workers"] += len(self._baseline)
                self._procs.append(proc)
                self._conns.append(parent_conn)
            self._subscribed = [set() for _ in range(self.workers)]
            self._replica_rows = [0] * self.workers

    def _discard_pool(self) -> None:
        """Tear the worker processes down without closing the executor —
        only safe right after a reset(), when the fresh baseline (plus
        queued syncs) fully determines replica state and _ensure_pool may
        respawn from it."""
        with self._lock:
            procs, self._procs = self._procs, []
            conns, self._conns = self._conns, []
        for proc in procs:
            proc.terminate()
            proc.join(timeout=1)
        for conn in conns:
            conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            procs, self._procs = self._procs, []
            conns, self._conns = self._conns, []
        stop = pickle.dumps(("stop",), -1)
        for conn in conns:
            try:
                conn.send_bytes(stop)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in conns:
            conn.close()
