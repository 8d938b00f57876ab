"""Process executor: replica sync protocol, lockstep equivalence, lifecycle.

The shard-diff hypothesis oracle (test_sharding.py) covers randomized
programs; these tests pin the deterministic corners — the reset/sync/
backfill replica protocol across full and incremental runs, retraction cascades
reaching the replicas, error propagation out of a worker, and executor
lifecycle (lazy spawn, close, re-dispatch after close).
"""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.cylog import (
    CyLogProcessor,
    SemiNaiveEngine,
    ShardConfig,
    compile_program,
    parse_program,
)
from repro.cylog.indexes import stable_hash
from repro.cylog.procpool import ProcessExecutor, ProcessPoolBrokenError

SOURCE = """
reach(S, Y) :- source(S), link(S, Y).
reach(S, Y) :- link(X, Y), reach(S, X).
joined(L, R) :- left(L, K), right(R, K).
quiet(X, Y) :- link(X, Y), not reach(X, Y).
fanout(X, count<Y>) :- link(X, Y).
"""


def _process_config(workers: int = 2) -> ShardConfig:
    return ShardConfig(
        shards=4, executor="process", max_workers=workers, min_parallel_rows=0
    )


def _load(engine: SemiNaiveEngine) -> None:
    engine.add_facts("link", [(i, i + 1) for i in range(40)])
    engine.add_facts("source", [(0,), (10,)])
    engine.add_facts("left", [(i, i % 6) for i in range(30)])
    engine.add_facts("right", [(i + 500, i % 6) for i in range(30)])


class TestEngineLockstep:
    def test_full_and_incremental_runs_match_serial(self):
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            assert process.run().relations == serial.run().relations
            # Retraction: the deletion cascade happens in the engine; the
            # replicas must see its outcome through the sync stream.
            for engine in (serial, process):
                engine.retract_facts("link", [(3, 4), (20, 21)])
                engine.retract_facts("right", [(505, 5)])
                engine.add_facts("link", [(3, 100), (100, 4)])
            expected = serial.run()
            result = process.run()
            assert result.relations == expected.relations
            assert result.added_rows == expected.added_rows
            assert result.removed_rows == expected.removed_rows
            assert process.store.fingerprint() == serial.store.fingerprint()
            assert process.runs == 1  # updates stayed incremental
            assert (
                process.stats.derivation_counters()
                == serial.stats.derivation_counters()
            )
        finally:
            serial.close()
            process.close()

    def test_second_full_run_resets_replicas(self):
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            serial.run(), process.run()
            for engine in (serial, process):
                engine.add_facts("link", [(200, 201)])
                engine.run(full=True)  # new store + replan: replicas reset
                engine.retract_facts("link", [(200, 201)])
            assert process.run().relations == serial.run().relations
            assert process.store.fingerprint() == serial.store.fingerprint()
        finally:
            serial.close()
            process.close()

    def test_killed_workers_demote_engine_to_serial(self):
        """Satellite gate: kill every child mid-stream — the next run must
        not hang or corrupt state.  The engine catches the broken pool,
        demotes itself to inline serial evaluation (its own store was
        authoritative all along) and keeps answering correctly."""
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            assert process.run().relations == serial.run().relations
            for proc in process._pool._procs:
                proc.terminate()
                proc.join(timeout=5)
            for engine in (serial, process):
                engine.retract_facts("link", [(3, 4)])
                engine.add_facts("link", [(3, 100), (100, 4)])
            expected = serial.run()
            result = process.run()  # survives the dead pool
            assert result.relations == expected.relations
            assert result.added_rows == expected.added_rows
            assert result.removed_rows == expected.removed_rows
            assert process.store.fingerprint() == serial.store.fingerprint()
            # The engine is durably usable after the fallback.
            for engine in (serial, process):
                engine.add_facts("link", [(200, 201), (201, 202)])
            assert process.run().relations == serial.run().relations
        finally:
            serial.close()
            process.close()

    def test_processor_plumbs_process_config(self):
        source = """
        open translate(seg: text, out: text) key (seg) asking "t {seg}".
        segment("a"). segment("b").
        translated(S, T) :- segment(S), translate(S, T).
        """
        processor = CyLogProcessor(
            source,
            config=RuntimeConfig(shards=2, executor="process", max_workers=2),
        )
        try:
            assert processor.engine.shard_config.executor == "process"
            assert processor.engine.shard_config.shards == 2
            requests = processor.pending_requests()
            assert sorted(r.key_values for r in requests) == [("a",), ("b",)]
            processor.supply_answer(
                processor.request_for("translate", ("a",)), {"out": "A"}
            )
            assert processor.facts("translated") == frozenset({("a", "A")})
        finally:
            processor.close()

    def test_processor_shard_config_kwarg_removed(self):
        with pytest.raises(TypeError):
            CyLogProcessor("p(1).", shard_config=_process_config())


def _reset(executor: ProcessExecutor, compiled, facts: dict) -> None:
    """Install a baseline whose partitions are served from ``facts``
    (predicate -> row set), which stands in for the engine store.  One
    shard, so every partition key is ``(predicate, 0)``."""

    def provider(predicate: str, shard: int):
        rows = facts.get(predicate)
        if not rows:
            return None
        return len(next(iter(rows))), tuple(sorted(rows))

    arities = {pred: len(next(iter(rows))) for pred, rows in facts.items() if rows}
    executor.reset(compiled, arities, partition_provider=provider)


def _sync(executor: ProcessExecutor, facts: dict, predicate: str, adds=(), removes=()):
    """Mutate the stand-in store and stream the net change, keyed by
    partition, exactly as the engine's ledger does."""
    facts[predicate] = (facts.get(predicate, set()) | set(adds)) - set(removes)
    executor.sync(
        {(predicate, 0): frozenset(adds)} if adds else {},
        {(predicate, 0): frozenset(removes)} if removes else {},
    )


def _rows(result) -> set:
    return {row for row, _ in result[0]}


class TestProtocol:
    def test_dispatch_before_reset_raises(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            with pytest.raises(RuntimeError, match="before reset"):
                executor.run_rule_tasks([(0, None, None, None)])
        finally:
            executor.close()

    def test_worker_error_propagates(self):
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=1)
        try:
            _reset(executor, compiled, {"e": {(1,)}})
            with pytest.raises(RuntimeError, match="process worker failed"):
                executor.run_rule_tasks([(0, 0, None, ([1],))])  # unhashable row
        finally:
            executor.close()

    def test_error_path_drains_other_workers(self):
        """One failing task must not desync the pipe protocol: the other
        workers' replies are drained, and the next dispatch returns fresh
        (not stale) results."""
        compiled = compile_program(parse_program("d(X) :- e(X).\nf(X) :- g(X)."))
        executor = ProcessExecutor(max_workers=2)
        bad, good = (0, 0, 0, ([1],)), (1, None, None, None)
        # The two task classes route to different workers.
        assert stable_hash(bad[:3]) % 2 != stable_hash(good[:3]) % 2
        try:
            _reset(executor, compiled, {"e": {(1,)}, "g": {(9,)}})
            with pytest.raises(RuntimeError, match="process worker failed"):
                executor.run_rule_tasks([bad, good])
            first, second = executor.run_rule_tasks(
                [(0, None, None, None), (0, None, None, None)]
            )
            assert _rows(first) == _rows(second) == {(1,)}
        finally:
            executor.close()

    def test_results_come_back_in_submission_order(self):
        compiled = compile_program(parse_program("d(X) :- e(X).\nf(X) :- g(X)."))
        executor = ProcessExecutor(max_workers=3)
        try:
            _reset(executor, compiled, {"e": {(1,), (2,)}, "g": {(9,)}})
            # Task classes spread over two workers, interleaved.
            results = executor.run_rule_tasks(
                [(0, None, 2, None), (1, None, None, None), (0, None, 3, None)]
            )
            assert len(results) == 3
            first, second, third = results
            assert _rows(first) == {(1,), (2,)}
            assert _rows(second) == {(9,)}
            assert _rows(third) == {(1,), (2,)}
        finally:
            executor.close()

    def test_sync_reaches_replicas_spawned_later(self):
        """Syncs queued before the pool spawns are folded into the first
        backfill (the lazy-spawn path); once a worker subscribes to a
        partition, later syncs reach its replica through the pipe."""
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=2)
        facts = {"e": {(1,)}}
        try:
            _reset(executor, compiled, facts)
            _sync(executor, facts, "e", adds={(2,), (3,)})
            _sync(executor, facts, "e", removes={(1,)})
            (result,) = executor.run_rule_tasks([(0, None, None, None)])
            assert _rows(result) == {(2,), (3,)}
            assert executor.telemetry()["sync_rows_shipped"] == 0
            _sync(executor, facts, "e", adds={(4,)}, removes={(2,)})
            (result,) = executor.run_rule_tasks([(0, None, None, None)])
            assert _rows(result) == {(3,), (4,)}
            assert executor.telemetry()["sync_rows_shipped"] == 2
        finally:
            executor.close()

    def test_killed_worker_raises_broken_pool(self):
        """A worker death mid-dispatch surfaces as ProcessPoolBrokenError
        (not a hang, not a pickle error) and closes the pool."""
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=2)
        try:
            _reset(executor, compiled, {"e": {(1,)}})
            executor.run_rule_tasks([(0, None, None, None)])  # spawn the pool
            for proc in executor._procs:
                proc.terminate()
                proc.join(timeout=5)
            with pytest.raises(ProcessPoolBrokenError, match="worker died"):
                executor.run_rule_tasks([(0, None, None, None)])
            with pytest.raises(RuntimeError, match="closed"):
                executor.run_rule_tasks([(0, None, None, None)])
        finally:
            executor.close()

    def test_close_is_idempotent_and_terminal_until_reset(self):
        """Dispatching after close() must raise — respawning from the old
        baseline would silently drop every already-streamed sync — while a
        fresh reset() (what an engine full run issues) re-opens the pool."""
        executor = ProcessExecutor(max_workers=1)
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        facts = {"e": {(1,)}}
        _reset(executor, compiled, facts)
        _sync(executor, facts, "e", adds={(2,)})
        executor.run_rule_tasks([(0, None, None, None)])
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_rule_tasks([(0, None, None, None)])
        try:
            _reset(executor, compiled, {"e": {(1,), (2,), (3,)}})
            (result,) = executor.run_rule_tasks([(0, None, None, None)])
            assert _rows(result) == {(1,), (2,), (3,)}
        finally:
            executor.close()
