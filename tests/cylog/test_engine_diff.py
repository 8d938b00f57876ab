"""Randomized differential check of the evaluation pipeline.

Two implementations evaluate the same random stratified programs —
:func:`naive_evaluate` (the oracle) and :class:`SemiNaiveEngine` with the
cost-based planner — and must agree on every predicate's fixpoint.  Unlike the monotone
round-trips in ``test_properties``, these programs exercise negation,
aggregation and comparisons, i.e. the paths where a planner bug (wrong
join order, wrong index key, bad delta rewrite) could silently change
results.

The incremental-vs-scratch lockstep oracle drives one retained engine
through randomized add/retract sequences and, after *every* run, compares
its ``RelationStore.snapshot()`` byte-for-byte against a fresh engine
evaluated from the same base facts — the gate for the cross-run
counting/DRed retraction machinery.

The CI ``engine-diff`` job runs this module with
``ENGINE_DIFF_EXAMPLES=200`` / ``INCR_DIFF_EXAMPLES=75`` so hundreds of
random programs and update streams gate every merge; the local defaults
keep the tier-1 suite fast.
"""

from __future__ import annotations

import os

import pytest
from diffgen import EDB as _EDB
from diffgen import (
    TREE_PROGRAM,
    apply_forest_op,
    forest_ops,
    stratified_program,
    update_ops,
)
from hypothesis import given, settings

import hypothesis.strategies as st

from repro.cylog.engine import SemiNaiveEngine, naive_evaluate
from repro.cylog.parser import parse_program

EXAMPLES = int(os.environ.get("ENGINE_DIFF_EXAMPLES", "100"))
INCR_EXAMPLES = int(os.environ.get("INCR_DIFF_EXAMPLES", "25"))

pytestmark = pytest.mark.engine_diff

constants = st.integers(min_value=0, max_value=4)


@given(stratified_program())
@settings(max_examples=EXAMPLES, deadline=None)
def test_all_engines_agree(source: str):
    program = parse_program(source)
    oracle = naive_evaluate(program)
    cost = SemiNaiveEngine(program).run()
    for predicate in program.predicates():
        assert oracle.facts(predicate) == cost.facts(predicate), predicate


@given(stratified_program(), st.lists(st.tuples(constants, constants), max_size=4))
@settings(max_examples=EXAMPLES, deadline=None)
def test_fact_arrival_agrees_with_batch_oracle(source: str, extra_edges):
    """Facts arriving after the first run (the per-task-completion path)
    must land on the same fixpoint as evaluating everything at once —
    whether the engine continues incrementally (monotone) or re-runs."""
    program = parse_program(source)
    engine = SemiNaiveEngine(program)
    engine.run()
    engine.add_facts("e1", extra_edges)
    incremental = engine.run()
    batch = naive_evaluate(program, {"e1": extra_edges})
    for predicate in program.predicates():
        assert incremental.facts(predicate) == batch.facts(predicate), predicate


@given(stratified_program(), update_ops)
@settings(max_examples=INCR_EXAMPLES, deadline=None)
def test_incremental_add_retract_matches_scratch(source: str, ops):
    """Lockstep oracle for cross-run incrementality: after every single
    add/retract + run the retained engine's store must be byte-identical to
    a from-scratch evaluation over the same base facts, the reported deltas
    must equal the actual snapshot diff, and no hidden full re-run may
    have happened."""
    program = parse_program(source)
    engine = SemiNaiveEngine(program)
    previous = engine.run().relations
    base: dict[str, set] = {pred: set() for pred in _EDB}
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
        result = engine.run()
        scratch = SemiNaiveEngine(program)
        # A fresh engine re-loads the program facts; sync to `base` exactly.
        for pred, rows in base.items():
            stale = {
                r
                for fact in program.facts
                if fact.atom.predicate == pred
                for r in [tuple(t.value for t in fact.atom.terms)]
                if r not in rows
            }
            if stale:
                scratch.retract_facts(pred, stale)
            extra = rows - {
                tuple(t.value for t in fact.atom.terms)
                for fact in program.facts
                if fact.atom.predicate == pred
            }
            if extra:
                scratch.add_facts(pred, extra)
        expected = scratch.run().relations
        current = engine.store.snapshot()
        all_preds = set(expected) | set(current)
        for pred in all_preds:
            assert current.get(pred, frozenset()) == expected.get(
                pred, frozenset()
            ), pred
        # Reported deltas == actual snapshot diff.
        for pred in set(previous) | set(current):
            old = previous.get(pred, frozenset())
            new = current.get(pred, frozenset())
            assert result.added(pred) == new - old, pred
            assert result.removed(pred) == old - new, pred
        previous = current
    assert engine.runs == 1  # every update stayed incremental


@given(forest_ops())
@settings(max_examples=INCR_EXAMPLES, deadline=None)
def test_interval_leg_matches_fixpoint_lockstep(ops):
    """Interval-leg oracle: the retained interval-enabled engine is driven
    through random forest churn in lockstep with a retained fixpoint-only
    engine.  After every run the snapshots AND the reported added/removed
    deltas must be bit-identical — including across the sound-disable and
    re-enable transitions the non-forest ops provoke — and neither engine
    may fall back to a hidden full re-run."""
    program = parse_program(TREE_PROGRAM)
    interval = SemiNaiveEngine(program, interval=True)
    fixpoint = SemiNaiveEngine(program, interval=False)
    interval.run()
    fixpoint.run()
    for op in ops:
        apply_forest_op(interval, op)
        apply_forest_op(fixpoint, op)
        got = interval.run()
        want = fixpoint.run()
        current = interval.store.snapshot()
        expected = fixpoint.store.snapshot()
        for pred in set(expected) | set(current):
            assert current.get(pred, frozenset()) == expected.get(
                pred, frozenset()
            ), (pred, op)
        for pred in set(want.added_rows) | set(got.added_rows):
            assert got.added(pred) == want.added(pred), (pred, op)
        for pred in set(want.removed_rows) | set(got.removed_rows):
            assert got.removed(pred) == want.removed(pred), (pred, op)
    assert interval.runs == 1
    assert fixpoint.runs == 1
