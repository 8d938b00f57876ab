"""Sharded store, shard layout and the shard-diff lockstep oracle.

The unit tests cover the sharded primitives directly; the hypothesis
tests (marked ``shard_diff``, run with ``SHARD_DIFF_EXAMPLES=60`` by the
CI ``shard-diff`` job) drive sharded engines through randomized programs
and add/retract streams in lockstep with a single-store engine and
require byte-identical snapshots, deltas and merge-side counters after
every run — the same discipline as the ``engine-diff`` and
``platform-diff`` oracles.
"""

from __future__ import annotations

import os
from dataclasses import fields

import pytest
from diffgen import (
    EDB,
    TREE_PROGRAM,
    apply_forest_op,
    forest_ops,
    stratified_program,
    update_ops,
)
from hypothesis import given, settings

import repro.cylog
from repro.cylog import (
    EngineStats,
    SemiNaiveEngine,
    ShardConfig,
    ShardedRelationStore,
    parse_program,
)
from repro.cylog.engine import RelationStore, run_rule_task
from repro.cylog.incremental import ShardedSupportIndex, SupportIndex
from repro.cylog.sharding import ShardedRelation, shard_of

SHARD_EXAMPLES = int(os.environ.get("SHARD_DIFF_EXAMPLES", "15"))

#: The configurations the oracle compares against the single store, with
#: and without the exchange operator (``exchange=False`` keeps the
#: chained-lookup fallback and the single store's plans on non-prefix
#: join keys).
SHARD_CONFIGS = (
    ShardConfig(shards=1),
    ShardConfig(shards=2),
    ShardConfig(shards=8),
    ShardConfig(shards=8, exchange=False),
)


def _merge_counters(stats: EngineStats) -> dict[str, int]:
    """The counters every shard layout must reproduce exactly: the
    merge-side derivation counters (delta ``rounds`` included) plus the
    scan count."""
    return {**stats.derivation_counters(), "full_scans": stats.full_scans}


class TestShardedRelation:
    def test_routing_is_stable_and_partitioning(self):
        relation = ShardedRelation(2, 4)
        rows = [(i, i + 1) for i in range(40)]
        for row in rows:
            assert relation.add(row)
            assert not relation.add(row)  # idempotent
        assert len(relation) == 40
        assert sum(relation.shard_sizes()) == 40
        for row in rows:
            assert row in relation
        expected_sizes = [0] * 4
        for row in rows:
            expected_sizes[relation.shard_of(row)] += 1
        assert relation.shard_sizes() == tuple(expected_sizes)
        assert relation.snapshot() == frozenset(rows)

    def test_lookup_routes_on_key_prefix(self):
        relation = ShardedRelation(2, 8)
        relation.ensure_index((0,))
        relation.ensure_index((1,))
        for i in range(20):
            relation.add((i, i % 3))
        # Key covers position 0: routed probe, same answer as a scan.
        assert set(relation.lookup((0,), (7,))) == {(7, 1)}
        # Key does not cover position 0: chained across shards.
        chained = relation.lookup((1,), (0,))
        assert set(chained) == {(i, 0) for i in range(0, 20, 3)}
        assert len(chained) == 7
        assert bool(chained)
        # Full scan (no index positions).
        assert len(relation.lookup((), ())) == 20

    def test_discard_and_match(self):
        relation = ShardedRelation(2, 4)
        relation.add((1, 2))
        relation.add((1, 3))
        assert set(relation.match((1, None))) == {(1, 2), (1, 3)}
        assert relation.discard((1, 2))
        assert not relation.discard((1, 2))
        assert set(relation.match((1, None))) == {(1, 3)}

    def test_zero_shard_of_empty_row(self):
        assert shard_of((), 8) == 0
        assert shard_of(("x",), 1) == 0

    def test_routing_follows_python_equality(self):
        """The store's sets/buckets conflate 1 == 1.0 == True; routing
        must agree or a sharded lookup misses rows the single store
        finds (strict bool/int filtering happens after the probe)."""
        for n in (2, 3, 8):
            assert shard_of((1,), n) == shard_of((1.0,), n) == shard_of((True,), n)
            assert shard_of((0,), n) == shard_of((0.0,), n) == shard_of((False,), n)

    def test_numeric_key_conflation_matches_single_store(self):
        """Regression: int-keyed lookup must find a float-keyed row (and
        wildcard retraction must keep strict-equality semantics) exactly
        as on the single store."""
        source = "j(X) :- k(X), m(X, Y).\nd(X) :- k(X), m(X, _)."
        program = parse_program(source)
        expected = None
        for config in (ShardConfig(), ShardConfig(shards=8)):
            engine = SemiNaiveEngine(program, shard_config=config)
            engine.add_facts("k", [(1,)])
            engine.add_facts("m", [(1.0, "x"), (True, "y")])
            engine.run()
            engine.retract_facts("m", [(1.0, "x")])
            engine.run()
            snapshot = engine.store.snapshot()
            if expected is None:
                expected = snapshot
            else:
                assert snapshot == expected


class TestExchangeRepartition:
    def _filled(self, repartition: bool) -> ShardedRelation:
        relation = ShardedRelation(
            2, 8, index_specs=((1,),), repartition_positions=(1,) if repartition else ()
        )
        for i in range(60):
            relation.add((i, i % 7))
        return relation

    def test_routed_lookup_equals_chained_lookup(self):
        """The repartition answers non-prefix probes with exactly the rows
        the chained per-shard scan finds — for every key, hit or miss."""
        chained, routed = self._filled(False), self._filled(True)
        assert routed.repartition_positions() == (1,)
        for key in range(-2, 10):
            expect = set(chained.lookup((1,), (key,)))
            assert set(routed.lookup((1,), (key,))) == expect, key
            assert len(routed.lookup((1,), (key,))) == len(expect)

    def test_repartition_maintained_on_add_and_discard(self):
        relation = self._filled(True)
        assert relation.add((100, 3))
        assert set(relation.lookup((1,), (3,))) == {
            (i, 3) for i in range(3, 60, 7)
        } | {(100, 3)}
        assert relation.discard((100, 3))
        assert relation.discard((3, 3))
        assert set(relation.lookup((1,), (3,))) == {(i, 3) for i in range(10, 60, 7)}

    def test_late_registration_backfills(self):
        relation = self._filled(False)
        relation.ensure_repartition(1)
        chained = self._filled(False)
        for key in range(7):
            assert set(relation.lookup((1,), (key,))) == set(
                chained.lookup((1,), (key,))
            )

    def test_prefix_keys_still_route_primary(self):
        relation = self._filled(True)
        assert set(relation.lookup((0,), (7,))) == {(7, 0)}
        assert set(relation.lookup((0, 1), (7, 0))) == {(7, 0)}

    def test_position_validation(self):
        relation = ShardedRelation(2, 4)
        relation.ensure_repartition(0)  # the primary partition: a no-op
        assert relation.repartition_positions() == ()
        with pytest.raises(ValueError):
            relation.ensure_repartition(2)
        with pytest.raises(ValueError):
            relation.ensure_repartition(-1)

    def test_store_registers_specs_and_late_repartitions(self):
        store = ShardedRelationStore(4, repartition_specs={"edge": (1,)})
        edge = store.get("edge", 2)
        assert edge.repartition_positions() == (1,)
        other = store.get("other", 3)
        assert other.repartition_positions() == ()
        for i in range(20):
            other.add((i, i % 3, i % 5))
        store.ensure_repartition("other", 2)
        assert other.repartition_positions() == (2,)
        assert set(other.lookup((2,), (4,))) == {(i, i % 3, 4) for i in range(4, 20, 5)}
        # Registration for a predicate that does not exist yet applies on
        # creation (runtime-built plans may precede the first fact).
        store.ensure_repartition("later", 1)
        assert store.get("later", 2).repartition_positions() == (1,)

    def test_snapshot_ignores_repartitions(self):
        plain, repartitioned = self._filled(False), self._filled(True)
        assert repartitioned.snapshot() == plain.snapshot()
        assert len(repartitioned) == len(plain)


class TestShardedRelationStore:
    def test_snapshot_matches_single_store(self):
        single = RelationStore()
        sharded = ShardedRelationStore(8)
        for store in (single, sharded):
            rel = store.get("edge", 2)
            for i in range(30):
                rel.add((i, i + 1))
            store.get("empty", 1)
        assert sharded.snapshot() == single.snapshot()
        assert sharded.fingerprint() == single.fingerprint()
        assert sharded.predicates() == single.predicates()

    def test_shard_fingerprints_are_stable(self):
        a, b = ShardedRelationStore(4), ShardedRelationStore(4)
        for store in (a, b):
            rel = store.get("edge", 2)
            for i in range(30):
                rel.add((i, i + 1))
        assert a.shard_fingerprints() == b.shard_fingerprints()
        assert len(a.shard_fingerprints()) == 4

    def test_arity_mismatch_raises(self):
        from repro.cylog.errors import CyLogTypeError

        store = ShardedRelationStore(2)
        store.get("p", 2)
        with pytest.raises(CyLogTypeError):
            store.get("p", 3)


class TestExecutors:
    def test_serial_preserves_order(self):
        """The engine runs each task inline through one runner, in
        submission order."""
        engine = SemiNaiveEngine(
            parse_program("e(1, 2). e(2, 3). a(X) :- e(X, _). b(Y) :- e(_, Y).")
        )
        engine.run()
        compiled, store = engine._active, engine.store
        results = [
            run_rule_task(compiled, store, index, None, None)[0]
            for index in (1, 0, 1)
        ]
        heads = [sorted(row for row, _ in derived) for derived in results]
        assert heads == [[(2,), (3,)], [(1,), (2,)], [(2,), (3,)]]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=0)
        assert [f.name for f in fields(ShardConfig)] == [
            "shards",
            "exchange",
            "interval",
        ]

    def test_process_executor_config(self):
        """The process pool is gone: its knobs are unknown keywords."""
        for removed in (
            {"executor": "process"},
            {"executor": "serial"},
            {"max_workers": 2},
            {"min_parallel_rows": 0},
        ):
            with pytest.raises(TypeError):
                ShardConfig(shards=4, **removed)

        assert not hasattr(repro.cylog, "ProcessExecutor")
        assert not hasattr(repro.cylog, "ProcessPoolBrokenError")

    def test_plan_shards_follows_exchange_flag(self):
        assert ShardConfig(shards=8).plan_shards == 8
        assert ShardConfig(shards=8, exchange=False).plan_shards == 1
        assert ShardConfig().plan_shards == 1


class TestShardedSupportIndex:
    def test_behaves_like_plain_index(self):
        plain, sharded = SupportIndex(), ShardedSupportIndex(4)
        key_a = (0, (("e", (1, None)),))
        key_b = (1, (("e", (1, 2)), ("e", (None, 3))))
        for index in (plain, sharded):
            assert index.add("d", (1,), key_a)
            assert not index.add("d", (1,), key_a)
            assert index.add("d", (1,), key_b)
            assert index.count("d", (1,)) == 2
        for row in [(1, 2), (1, 9), (2, 3), (9, 9)]:
            expect = sorted(plain.dependents("e", row), key=repr)
            got = sorted(sharded.dependents("e", row), key=repr)
            assert got == expect, row
        for index in (plain, sharded):
            assert index.drop("d", (1,), key_a) == 1
            index.discard_tuple("d", (1,))
            assert index.count("d", (1,)) == 0
            assert index.dependents("e", (1, 2)) == []


class TestWriteAwareReplan:
    """Acceptance gate for write-aware exchange costing: a write-heavy
    stream on a repartitioned relation demotes the repartition to chained
    probes mid-stream — without changing a single derived row."""

    SOURCE = "j(L, R) :- left(L, K), right(R, K)."

    def _probe_for(self, engine, predicate):
        for rule in engine._active.rules:
            for step in rule.join_plan.steps:
                if step.literal.predicate == predicate:
                    return step
        raise AssertionError(predicate)

    def test_write_heavy_stream_demotes_repartition(self):
        program = parse_program(self.SOURCE)
        reference = SemiNaiveEngine(program)
        engine = SemiNaiveEngine(program, shard_config=ShardConfig(shards=8))
        for e in (reference, engine):
            e.add_facts("left", [(i, i % 4) for i in range(4)])
            e.add_facts("right", [(i, i % 4) for i in range(8)])
            e.run()
        # The non-prefix probe on ``right`` starts repartition-routed.
        assert self._probe_for(engine, "right").exchange_position == 1
        previous: list = []
        for round_ in range(5):
            adds = [(1000 + round_ * 100 + i, i % 4) for i in range(60)]
            for e in (reference, engine):
                e.add_facts("right", adds)
                if previous:
                    e.retract_facts("right", previous)
            previous = adds
            expected = reference.run()
            result = engine.run()
            assert result.added_rows == expected.added_rows
            assert result.removed_rows == expected.removed_rows
            assert engine.store.snapshot() == reference.store.snapshot()
        # The observed churn on ``right`` crossed the break-even and
        # the planner dropped its repartitioned copy.
        assert engine.stats.write_replans >= 1
        demoted = self._probe_for(engine, "right")
        assert demoted.exchange_position is None
        assert demoted.chained
        assert engine.runs == 1  # every update stayed incremental

    def test_quiet_stream_never_replans(self):
        program = parse_program(self.SOURCE)
        engine = SemiNaiveEngine(program, shard_config=ShardConfig(shards=8))
        engine.add_facts("left", [(i, i % 4) for i in range(40)])
        engine.add_facts("right", [(i, i % 4) for i in range(40)])
        engine.run()
        engine.add_facts("right", [(100, 0)])
        engine.run()
        assert engine.stats.write_replans == 0
        assert self._probe_for(engine, "right").exchange_position == 1


def _engine_with(program, config: ShardConfig) -> SemiNaiveEngine:
    return SemiNaiveEngine(program, shard_config=config)


def _sync_base(engine: SemiNaiveEngine, program, base: dict[str, set]) -> None:
    """Drive a fresh engine's base facts to exactly ``base``."""
    program_rows = {
        pred: {
            tuple(t.value for t in fact.atom.terms)
            for fact in program.facts
            if fact.atom.predicate == pred
        }
        for pred in base
    }
    for pred, rows in base.items():
        stale = program_rows.get(pred, set()) - rows
        if stale:
            engine.retract_facts(pred, stale)
        extra = rows - program_rows.get(pred, set())
        if extra:
            engine.add_facts(pred, extra)


@pytest.mark.shard_diff
@given(stratified_program())
@settings(max_examples=SHARD_EXAMPLES, deadline=None)
def test_sharded_engines_agree_on_fixpoint(source: str):
    """Every shard configuration lands on the byte-identical fixpoint of
    the single-store engine, with the same merge-side counters."""
    program = parse_program(source)
    reference = SemiNaiveEngine(program)
    expected = reference.run().relations
    expected_fp = reference.store.fingerprint()
    for config in SHARD_CONFIGS:
        engine = _engine_with(program, config)
        result = engine.run()
        assert result.relations == expected, config
        assert engine.store.fingerprint() == expected_fp, config
        assert _merge_counters(engine.stats) == _merge_counters(
            reference.stats
        ), config


@pytest.mark.shard_diff
@given(stratified_program(), update_ops)
@settings(max_examples=SHARD_EXAMPLES, deadline=None)
def test_sharded_add_retract_lockstep(source: str, ops):
    """Randomized add/retract streams run in lockstep on every shard
    configuration and on the single store; after *every* run the
    snapshots, the reported deltas and the merge-side counters must be
    identical, and no configuration may fall back to a hidden full
    re-run."""
    program = parse_program(source)
    reference = SemiNaiveEngine(program)
    engines = [_engine_with(program, config) for config in SHARD_CONFIGS]
    reference.run()
    for engine in engines:
        engine.run()
    for is_add, predicate, row in ops:
        for engine in (reference, *engines):
            if is_add:
                engine.add_facts(predicate, [row])
            else:
                engine.retract_facts(predicate, [row])
        expected = reference.run()
        expected_snapshot = reference.store.snapshot()
        expected_counters = _merge_counters(reference.stats)
        for engine, config in zip(engines, SHARD_CONFIGS):
            result = engine.run()
            assert engine.store.snapshot() == expected_snapshot, config
            assert result.added_rows == expected.added_rows, config
            assert result.removed_rows == expected.removed_rows, config
            assert _merge_counters(engine.stats) == expected_counters, config
    assert reference.runs == 1
    for engine in engines:
        assert engine.runs == 1  # every update stayed incremental


@pytest.mark.shard_diff
@given(stratified_program(), update_ops)
@settings(max_examples=max(5, SHARD_EXAMPLES // 3), deadline=None)
def test_sharded_matches_scratch_reload(source: str, ops):
    """After the whole stream, a sharded engine's retained store equals a
    from-scratch single-store evaluation over the same base facts."""
    program = parse_program(source)
    engine = _engine_with(program, ShardConfig(shards=8))
    engine.run()
    base: dict[str, set] = {pred: set() for pred in EDB}
    for fact in program.facts:
        base.setdefault(fact.atom.predicate, set()).add(
            tuple(t.value for t in fact.atom.terms)
        )
    for is_add, predicate, row in ops:
        if is_add:
            engine.add_facts(predicate, [row])
            base[predicate].add(row)
        else:
            engine.retract_facts(predicate, [row])
            base[predicate].discard(row)
        engine.run()
    scratch = SemiNaiveEngine(program)
    _sync_base(scratch, program, base)
    expected = scratch.run().relations
    current = engine.store.snapshot()
    # A retained engine keeps an emptied relation in its snapshot; a
    # from-scratch engine never creates it.  Same normalisation as the
    # engine-diff oracle: missing == empty.
    for pred in set(expected) | set(current):
        assert current.get(pred, frozenset()) == expected.get(
            pred, frozenset()
        ), pred


@pytest.mark.shard_diff
@given(forest_ops())
@settings(max_examples=SHARD_EXAMPLES, deadline=None)
def test_interval_leg_sharded_lockstep(ops):
    """Interval leg of the shard-diff oracle: random forest churn runs in
    lockstep on every shard configuration (interval on, the default) and
    on a single-store *fixpoint-only* reference.  After every run the
    snapshots and reported deltas must be byte-identical, and every
    configuration must reproduce the interval single store's merge-side
    counters — the interval index lives beside the engine, so no shard
    count may perturb what it derives."""
    program = parse_program(TREE_PROGRAM)
    reference = SemiNaiveEngine(program, shard_config=ShardConfig(interval=False))
    engines = [_engine_with(program, config) for config in SHARD_CONFIGS]
    reference.run()
    for engine in engines:
        engine.run()
    for op in ops:
        for engine in (reference, *engines):
            apply_forest_op(engine, op)
        expected = reference.run()
        expected_snapshot = reference.store.snapshot()
        for engine, config in zip(engines, SHARD_CONFIGS):
            result = engine.run()
            assert engine.store.snapshot() == expected_snapshot, (config, op)
            assert result.added_rows == expected.added_rows, (config, op)
            assert result.removed_rows == expected.removed_rows, (config, op)
            assert _merge_counters(engine.stats) == _merge_counters(
                engines[0].stats
            ), (config, op)
    for engine in (reference, *engines):
        assert engine.runs == 1  # every update stayed incremental


def _determinism_program():
    source = "\n".join(
        [
            *(f"link({i}, {i + 1})." for i in range(60)),
            *(f"link({i}, {i + 20})." for i in range(0, 40, 3)),
            "source(0).",
            "source(7).",
            "reach(S, Y) :- source(S), link(S, Y).",
            "reach(S, Y) :- link(X, Y), reach(S, X).",
            "touched(X) :- link(X, _).",
            "quiet(X, Y) :- link(X, Y), not reach(X, Y).",
            "fanout(X, count<Y>) :- link(X, Y).",
        ]
    )
    return parse_program(source)


class TestExecutorDeterminism:
    """Fixed-seed runs at shard counts 1/2/8 produce identical results
    *and* identical merge-side counters; shard count 1 is the single
    store every sharded layout is compared against."""

    SHARD_COUNTS = (1, 2, 8)

    def _run(self, config: ShardConfig):
        engine = SemiNaiveEngine(_determinism_program(), shard_config=config)
        first = engine.run()
        engine.retract_facts("link", [(5, 6), (9, 10)])
        engine.add_facts("link", [(100, 101), (5, 100)])
        second = engine.run()
        return first, second, engine.stats

    def _run_all(self):
        return [self._run(ShardConfig(shards=n)) for n in self.SHARD_COUNTS]

    def test_results_and_stats_match_at_any_shard_count(self):
        outcomes = self._run_all()
        baseline_first, baseline_second, baseline_stats = outcomes[0]
        # Delta rounds actually ran, in the incremental run too.
        assert baseline_stats.incremental_runs == 1
        assert baseline_stats.rounds > 0
        for first, second, stats in outcomes[1:]:
            assert first.relations == baseline_first.relations
            assert second.relations == baseline_second.relations
            assert second.added_rows == baseline_second.added_rows
            assert second.removed_rows == baseline_second.removed_rows
            # Merge-side counters — not just the fixpoint — must be
            # shard-count-independent: the serial merge does all counting.
            assert _merge_counters(stats) == _merge_counters(baseline_stats)

    def test_incremental_runs_stay_incremental(self):
        for _, second, stats in self._run_all():
            assert stats.incremental_runs == 1
            assert second.has_changes()

    def _run_interval(self):
        """Fixed tree churn on an interval-eligible program at shard
        counts 1/2/8."""
        program = parse_program(TREE_PROGRAM)
        outcomes = []
        for shards in self.SHARD_COUNTS:
            engine = SemiNaiveEngine(program, shard_config=ShardConfig(shards=shards))
            engine.add_facts("edge", [(i, i + 1) for i in range(40)])
            engine.add_facts("edge", [(i, i + 100) for i in range(0, 40, 5)])
            first = engine.run()
            engine.retract_facts("edge", [(10, 11)])
            engine.add_facts("edge", [(200, 10), (39, 40)])
            second = engine.run()
            outcomes.append((first, second, engine.stats))
        return outcomes

    def test_interval_stats_identical_at_any_shard_count(self):
        """The interval index lives beside the engine and steps serially,
        so its counters — like every other merge-side counter — are
        shard-count independent."""
        outcomes = self._run_interval()
        single_first, single_second, single_stats = outcomes[0]
        assert single_stats.interval_scans > 0  # the path actually engaged
        for first, second, stats in outcomes[1:]:
            assert first.relations == single_first.relations
            assert second.added_rows == single_second.added_rows
            assert second.removed_rows == single_second.removed_rows
            assert _merge_counters(stats) == _merge_counters(single_stats)
