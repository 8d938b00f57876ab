"""Randomized differential check of the CyLog evaluation pipeline.

:func:`naive_evaluate` (the oracle) and :class:`SemiNaiveEngine` must
agree on every predicate of random stratified programs with negation,
aggregation and comparisons — the paths a planner bug (wrong join order,
wrong index key, bad delta rewrite) would silently change.  Lockstep legs
then drive a retained engine through add/retract streams against a
from-scratch one, over random programs and over subtree moves in a
recursive closure; snapshots and reported deltas must match after every
run.

The CI ``engine-diff`` job runs this module with
``ENGINE_DIFF_EXAMPLES=200`` / ``INCR_DIFF_EXAMPLES=75``; the local
defaults keep the tier-1 suite fast.
"""

from __future__ import annotations

import dataclasses
import os

import oracle
import pytest
from diffgen import (
    TREE_PROGRAM,
    constants,
    forest_ops,
    stratified_program,
    update_ops,
)
from hypothesis import given, settings
from oracle import Leg, nonempty

import hypothesis.strategies as st

from repro.cylog.engine import SemiNaiveEngine, naive_evaluate
from repro.cylog.parser import parse_program

EXAMPLES = int(os.environ.get("ENGINE_DIFF_EXAMPLES", "100"))
INCR_EXAMPLES = int(os.environ.get("INCR_DIFF_EXAMPLES", "25"))

pytestmark = pytest.mark.engine_diff


class EngineLeg(Leg):
    """A retained engine: each ``(assert?, predicate, row)`` op, then a run."""

    def __init__(self, name: str, program):
        self.name = name
        self.engine = SemiNaiveEngine(program)
        self.result = self.engine.run()

    def apply(self, op) -> None:
        is_add, predicate, row = op
        update = self.engine.add_facts if is_add else self.engine.retract_facts
        update(predicate, [row])
        self.result = self.engine.run()

    def state(self) -> dict:
        return {
            "snapshot": nonempty(self.engine.store.snapshot()),
            "deltas": (
                nonempty(self.result.added_rows),
                nonempty(self.result.removed_rows),
            ),
        }


class ScratchLeg(Leg):
    """A fresh engine per op over the same base facts; its deltas are the
    diff of consecutive snapshots."""

    name = "scratch"

    def __init__(self, program):
        self.rules = dataclasses.replace(program, facts=())
        self.base = {
            (fact.atom.predicate, tuple(t.value for t in fact.atom.terms))
            for fact in program.facts
        }
        self.snapshot: dict = {}
        self.apply(None)

    def apply(self, op) -> None:
        if op is not None:
            is_add, predicate, row = op
            (self.base.add if is_add else self.base.discard)((predicate, row))
        engine = SemiNaiveEngine(self.rules)
        for predicate, row in self.base:
            engine.add_facts(predicate, [row])
        before, self.snapshot = self.snapshot, nonempty(engine.run().relations)
        self.deltas = tuple(
            nonempty({p: rows - old.get(p, frozenset()) for p, rows in new.items()})
            for new, old in ((self.snapshot, before), (before, self.snapshot))
        )

    def state(self) -> dict:
        return {"snapshot": self.snapshot, "deltas": self.deltas}


@given(stratified_program())
@settings(max_examples=EXAMPLES, deadline=None)
def test_all_engines_agree(source: str):
    program = parse_program(source)
    naive = naive_evaluate(program)
    cost = SemiNaiveEngine(program).run()
    for predicate in program.predicates():
        assert naive.facts(predicate) == cost.facts(predicate), predicate


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
    """Cross-run incrementality: after every add/retract + run the
    retained engine's store equals a from-scratch evaluation of the same
    base facts, its reported deltas equal the scratch snapshots' diff, and
    no hidden full re-run happened."""
    program = parse_program(source)
    retained = EngineLeg("retained", program)
    oracle.lockstep([retained, ScratchLeg(program)], ops, ("snapshot", "deltas"))
    assert retained.engine.runs == 1  # every update stayed incremental


@given(forest_ops())
@settings(max_examples=INCR_EXAMPLES, deadline=None)
def test_tree_churn_matches_scratch_lockstep(ops):
    """Tree churn: subtree moves, cycles and multi-parent edges through
    a recursive closure with downstream join, negation and aggregate —
    DRed over-delete / re-derive must leave the retained engine's
    snapshots and reported deltas equal to a from-scratch engine's after
    every run, with no hidden full re-run."""
    program = parse_program(TREE_PROGRAM)
    retained = EngineLeg("retained", program)
    oracle.lockstep([retained, ScratchLeg(program)], ops, ("snapshot", "deltas"))
    assert retained.engine.runs == 1
