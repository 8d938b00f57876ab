"""Cross-run incremental evaluation: retraction semantics and deltas.

These tests pin the counting + DRed deletion machinery of
:class:`SemiNaiveEngine` — support counts > 1, over-delete / re-derive
inside recursion, negation gain/loss triggers, aggregate recompute-and-diff
— and the ``EvaluationResult.added/removed`` change reports every run
surfaces.  Everything here runs against the *retained* store: ``runs`` must
stay at 1 throughout (no hidden full recomputations).
"""

from __future__ import annotations

import pytest

from repro.cylog.engine import SemiNaiveEngine, naive_evaluate
from repro.cylog.errors import CyLogTypeError
from repro.cylog.parser import parse_program


def _engine(source: str) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(parse_program(source))
    engine.run()
    return engine


class TestSupportCounting:
    def test_multiple_rules_keep_tuple_alive(self):
        """A fact derived by two rules survives losing one of them
        (support count 2 -> 1) and dies with the second (1 -> 0)."""
        engine = _engine("""
            a(1). b(1).
            d(X) :- a(X).
            d(X) :- b(X).
        """)
        assert engine.facts("d") == {(1,)}
        engine.retract_facts("a", [(1,)])
        result = engine.run()
        assert result.facts("d") == {(1,)}
        assert result.removed("d") == frozenset()  # still supported via b
        engine.retract_facts("b", [(1,)])
        result = engine.run()
        assert result.facts("d") == frozenset()
        assert result.removed("d") == {(1,)}
        assert engine.runs == 1

    def test_multiple_bindings_keep_tuple_alive(self):
        """Two bindings of the same rule are two supports."""
        engine = _engine("""
            edge("a", "x"). edge("b", "x").
            reached(Y) :- edge(_, Y).
        """)
        engine.retract_facts("edge", [("a", "x")])
        assert engine.run().facts("reached") == {("x",)}
        engine.retract_facts("edge", [("b", "x")])
        assert engine.run().facts("reached") == frozenset()
        assert engine.runs == 1

    def test_wildcard_support_rechecked_not_dropped(self):
        """An anonymous-variable dependency survives as long as *some* row
        still matches the hole."""
        engine = _engine("""
            likes("ann", "tea"). likes("ann", "gin"). likes("bob", "tea").
            drinker(X) :- likes(X, _).
        """)
        engine.retract_facts("likes", [("ann", "tea")])
        assert engine.run().facts("drinker") == {("ann",), ("bob",)}
        engine.retract_facts("likes", [("ann", "gin")])
        result = engine.run()
        assert result.facts("drinker") == {("bob",)}
        assert result.removed("drinker") == {("ann",)}

    def test_wildcard_recheck_keeps_bool_int_apart(self):
        """The wildcard re-check goes through the hash index, where
        ``True`` and ``1`` collide — a bool row must not keep an int
        binding's support alive (mirrors ``_bind_atom`` strictness)."""
        engine = _engine("j(X) :- k(X), m(X, _).")
        engine.add_facts("k", [(1,)])
        engine.add_facts("m", [(True, "x"), (1, "y")])
        assert engine.run().facts("j") == {(1,)}
        engine.retract_facts("m", [(1, "y")])
        assert engine.run().facts("j") == frozenset()

    def test_wildcard_patterns_keep_bool_int_apart(self):
        """Supports on ``m(1, _)`` and ``m(True, _)`` are distinct
        patterns: retracting the only int row drops the first and keeps
        the second."""
        engine = _engine("j(Y) :- k(X, Y), m(X, _).")
        engine.add_facts("k", [(1, "a"), (True, "b")])
        engine.add_facts("m", [(1, 5), (True, 6)])
        assert engine.run().facts("j") == {("a",), ("b",)}
        engine.retract_facts("m", [(1, 5)])
        result = engine.run()
        assert result.facts("j") == {("b",)}
        assert result.removed("j") == {("a",)}

    def test_numeric_keys_conflate_like_scratch(self):
        """An int-keyed probe finds a float-keyed row, and a wildcard
        retraction keeps strict bool/int semantics: the retained store
        equals a from-scratch evaluation after every step."""
        source = "j(X) :- k(X), m(X, Y).\nd(X) :- k(X), m(X, _)."
        engine = _engine(source)
        engine.add_facts("k", [(1,)])
        engine.add_facts("m", [(1.0, "x"), (True, "y")])
        engine.run()
        engine.retract_facts("m", [(1.0, "x")])
        engine.run()
        scratch = SemiNaiveEngine(parse_program(source))
        scratch.add_facts("k", [(1,)])
        scratch.add_facts("m", [(True, "y")])
        assert engine.store.snapshot() == scratch.run().relations

    def test_support_counts_tracked_after_incremental_addition(self):
        """A second derivation arriving *after* the first run must still
        count: retracting one of them later keeps the tuple."""
        engine = _engine("""
            a(1).
            d(X) :- a(X).
            d(X) :- b(X).
        """)
        engine.add_facts("b", [(1,)])
        assert engine.run().facts("d") == {(1,)}
        engine.retract_facts("a", [(1,)])
        assert engine.run().facts("d") == {(1,)}
        engine.retract_facts("b", [(1,)])
        assert engine.run().facts("d") == frozenset()
        assert engine.runs == 1


class TestRecursiveRetraction:
    CLOSURE = """
        edge(1, 2). edge(2, 3). edge(3, 4). edge(1, 3).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
    """

    def test_alternate_path_keeps_reachability(self):
        """Deleting edge(2,3) kills only the 2->* paths: path(1,3) and
        path(1,4) stay alive through their grounded edge(1,3) support (the
        counting fast path, no DRed churn needed)."""
        engine = _engine(self.CLOSURE)
        assert (1, 4) in engine.facts("path")
        engine.retract_facts("edge", [(2, 3)])
        result = engine.run()
        oracle = naive_evaluate(parse_program("""
            edge(1, 2). edge(3, 4). edge(1, 3).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), edge(Z, Y).
        """))
        assert result.facts("path") == oracle.facts("path")
        assert (1, 4) in result.facts("path")  # still held by 1->3->4
        assert result.removed("path") == {(2, 3), (2, 4)}
        assert engine.stats.tuples_rederived == 0  # counting sufficed
        assert engine.runs == 1

    def test_overdelete_then_rederive_through_recursion(self):
        """Deleting the only *grounded* support of path(1,3) forces a DRed
        over-delete; the tuple is re-derived through the recursive
        path(1,2) + edge(2,3) derivation and the net report shows only the
        base edge leaving."""
        engine = _engine("""
            edge(1, 2). edge(2, 3). edge(1, 3).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), edge(Z, Y).
        """)
        engine.retract_facts("edge", [(1, 3)])
        result = engine.run()
        assert result.facts("path") == {(1, 2), (2, 3), (1, 3)}
        assert result.removed("path") == frozenset()  # re-derived in place
        assert engine.stats.overdeletions > 0
        assert engine.stats.tuples_rederived > 0
        assert engine.runs == 1

    def test_suffix_cascade_without_alternate_path(self):
        engine = _engine(self.CLOSURE)
        engine.retract_facts("edge", [(3, 4)])
        result = engine.run()
        assert result.facts("path") == {(1, 2), (2, 3), (1, 3)}
        assert result.removed("path") == {(3, 4), (2, 4), (1, 4)}

    def test_cyclic_garbage_collected(self):
        """A derivation cycle kept alive only by a deleted external support
        must fully collapse (the counting-only trap DRed exists for)."""
        engine = _engine("""
            edge("in", "a"). edge("a", "b"). edge("b", "a").
            reach(Y) :- src(X), edge(X, Y).
            reach(Y) :- reach(X), edge(X, Y).
            src("in").
        """)
        assert engine.facts("reach") == {("a",), ("b",)}
        engine.retract_facts("edge", [("in", "a")])
        result = engine.run()
        # a and b support each other through the 2-cycle, but nothing
        # grounds them any more.
        assert result.facts("reach") == frozenset()
        assert result.removed("reach") == {("a",), ("b",)}


class TestNegationRetraction:
    def test_retraction_under_negation_adds_derivations(self):
        """Negation *loss* trigger: retracting a blocker derives new facts
        one stratum up."""
        engine = _engine("""
            person("a"). person("b"). happy("a").
            sad(X) :- person(X), not happy(X).
        """)
        assert engine.facts("sad") == {("b",)}
        engine.retract_facts("happy", [("a",)])
        result = engine.run()
        assert result.facts("sad") == {("a",), ("b",)}
        assert result.added("sad") == {("a",)}
        assert engine.runs == 1

    def test_addition_under_negation_retracts_derivations(self):
        engine = _engine("""
            person("a"). person("b").
            sad(X) :- person(X), not happy(X).
        """)
        assert engine.facts("sad") == {("a",), ("b",)}
        engine.add_facts("happy", [("a",)])
        result = engine.run()
        assert result.facts("sad") == {("b",)}
        assert result.removed("sad") == {("a",)}

    def test_wildcard_negation_blocked_by_surviving_row(self):
        """Retraction under ``not q(X, _)``: the negation only opens once
        *every* matching row is gone."""
        engine = _engine("""
            person("a"). person("b").
            likes("a", "tea"). likes("a", "gin").
            loner(X) :- person(X), not likes(X, _).
        """)
        assert engine.facts("loner") == {("b",)}
        engine.retract_facts("likes", [("a", "tea")])
        assert engine.run().facts("loner") == {("b",)}  # gin still blocks
        engine.retract_facts("likes", [("a", "gin")])
        result = engine.run()
        assert result.facts("loner") == {("a",), ("b",)}
        assert result.added("loner") == {("a",)}

    def test_rederivation_crosses_stratum_boundary(self):
        """Retraction in stratum 0 retracts a derived blocker, which lets a
        higher stratum re-derive through its negation — and the reverse on
        re-assertion."""
        engine = _engine("""
            flag("w", 1).
            banned(W) :- flag(W, F), F >= 1.
            member("w"). member("v").
            allowed(W) :- member(W), not banned(W).
            n_allowed(count<W>) :- allowed(W).
        """)
        assert engine.facts("allowed") == {("v",)}
        assert engine.facts("n_allowed") == {(1,)}
        engine.retract_facts("flag", [("w", 1)])
        result = engine.run()
        assert result.facts("allowed") == {("v",), ("w",)}
        assert result.removed("banned") == {("w",)}
        assert result.added("allowed") == {("w",)}
        assert result.facts("n_allowed") == {(2,)}
        engine.add_facts("flag", [("w", 5)])
        result = engine.run()
        assert result.facts("allowed") == {("v",)}
        assert result.facts("n_allowed") == {(1,)}
        assert engine.runs == 1


class TestAggregateRetraction:
    def test_counts_follow_retraction(self):
        engine = _engine("""
            speaks("a", "en"). speaks("b", "en"). speaks("c", "fr").
            per_lang(L, count<W>) :- speaks(W, L).
        """)
        assert engine.facts("per_lang") == {("en", 2), ("fr", 1)}
        engine.retract_facts("speaks", [("a", "en")])
        result = engine.run()
        assert result.facts("per_lang") == {("en", 1), ("fr", 1)}
        assert result.removed("per_lang") == {("en", 2)}
        assert result.added("per_lang") == {("en", 1)}
        assert engine.runs == 1

    def test_group_disappears_when_empty(self):
        engine = _engine("""
            speaks("c", "fr"). speaks("d", "en").
            per_lang(L, count<W>) :- speaks(W, L).
        """)
        engine.retract_facts("speaks", [("c", "fr")])
        result = engine.run()
        assert result.facts("per_lang") == {("en", 1)}
        assert result.removed("per_lang") == {("fr", 1)}

    def test_aggregate_feeding_rule_across_strata(self):
        """The aggregate diff must propagate into rules consuming it."""
        engine = _engine("""
            member("g1", "a"). member("g1", "b"). member("g2", "c").
            size(G, count<M>) :- member(G, M).
            big(G) :- size(G, N), N >= 2.
        """)
        assert engine.facts("big") == {("g1",)}
        engine.retract_facts("member", [("g1", "b")])
        result = engine.run()
        assert result.facts("big") == frozenset()
        assert result.removed("big") == {("g1",)}
        engine.add_facts("member", [("g2", "d"), ("g2", "e")])
        result = engine.run()
        assert result.facts("big") == {("g2",)}
        assert engine.runs == 1

    def test_multi_atom_aggregate_localised_exact_diff(self):
        """Join bodies are localised through the support index: retracting
        a fact touching only group "t" recomputes only that group and the
        diff is exact."""
        engine = _engine("""
            score("t", "a", 10). score("t", "b", 20). score("u", "a", 5).
            active("a"). active("b").
            total(G, sum<S>) :- score(G, W, S), active(W).
        """)
        assert engine.facts("total") == {("t", 30), ("u", 5)}
        engine.retract_facts("active", [("b",)])
        result = engine.run()
        assert result.facts("total") == {("t", 10), ("u", 5)}
        assert result.removed("total") == {("t", 30)}
        assert result.added("total") == {("t", 10)}

    def test_multi_atom_aggregate_localises_additions_and_removals(self):
        """Every delta side of every body atom lands on the same fixpoint
        as a from-scratch evaluation, group by group."""
        engine = _engine(
            "\n".join(
                [
                    # a fat "t" group localisation must avoid re-joining
                    *(f'score("t", "a", {i}).' for i in range(50)),
                    'score("u", "a", 5).',
                    'active("a").',
                    "total(G, sum<S>) :- score(G, W, S), active(W).",
                ]
            )
        )
        joined_baseline = engine.stats.tuples_joined
        engine.add_facts("score", [("u", "a", 7)])
        result = engine.run()
        assert result.facts("total") == {("t", 1225), ("u", 12)}
        assert result.added("total") == {("u", 12)}
        assert result.removed("total") == {("u", 5)}
        # Localisation: the untouched fat "t" group's join was not re-run.
        assert engine.stats.tuples_joined - joined_baseline < 20
        engine.add_facts("active", [("b",)])
        engine.add_facts("score", [("t", "b", 1000)])
        result = engine.run()
        assert result.facts("total") == {("t", 2225), ("u", 12)}
        engine.retract_facts("score", [("u", "a", 5)])
        result = engine.run()
        assert result.facts("total") == {("t", 2225), ("u", 7)}
        assert result.removed("total") == {("u", 12)}
        assert engine.runs == 1

    def test_multi_atom_aggregate_group_vanishes(self):
        """Removing the last contributing row deletes the group's output
        tuple entirely (no empty-group ghost)."""
        engine = _engine("""
            score("t", "a", 10). score("u", "a", 5).
            active("a").
            total(G, count<S>) :- score(G, W, S), active(W).
        """)
        engine.retract_facts("score", [("u", "a", 5)])
        result = engine.run()
        assert result.facts("total") == {("t", 1)}
        assert result.removed("total") == {("u", 1)}
        assert result.added("total") == frozenset()


class TestDeltaReports:
    def test_noop_run_reports_nothing(self):
        engine = _engine("p(1). q(X) :- p(X).")
        result = engine.run()
        assert not result.has_changes()

    def test_net_zero_churn_reports_nothing(self):
        """Retract + re-assert between runs cancels in the ledger."""
        engine = _engine("p(1). q(X) :- p(X).")
        engine.retract_facts("p", [(1,)])
        engine.add_facts("p", [(1,)])
        result = engine.run()
        assert not result.has_changes()
        assert result.facts("q") == {(1,)}

    def test_full_run_reports_diff_against_previous_fixpoint(self):
        engine = _engine("p(1). q(X) :- p(X).")
        engine.add_facts("p", [(2,)])
        engine.retract_facts("p", [(1,)])
        result = engine.run(full=True)
        assert result.added("q") == {(2,)}
        assert result.removed("q") == {(1,)}

    def test_retracting_idb_rejected(self):
        engine = _engine("p(1). q(X) :- p(X).")
        with pytest.raises(CyLogTypeError, match="derived"):
            engine.retract_facts("q", [(1,)])

    def test_retracting_absent_rows_is_noop(self):
        engine = _engine("p(1). q(X) :- p(X).")
        assert engine.retract_facts("p", [(9,)]) == 0
        assert not engine.run().has_changes()

    def test_program_text_facts_are_retractable(self):
        engine = _engine("p(1). p(2). q(X) :- p(X).")
        assert engine.retract_facts("p", [(1,)]) == 1
        assert engine.run().facts("q") == {(2,)}

    def test_arity_pinned_across_full_retraction(self):
        """Retracting every fact of a predicate must not let a later
        re-assertion change its arity (regression: the emptied base set
        used to disable the arity guard)."""
        engine = _engine("q(X) :- p(X, _).")
        engine.add_facts("p", [(1, 2)])
        engine.run()
        engine.retract_facts("p", [(1, 2)])
        engine.run()
        with pytest.raises(CyLogTypeError, match="arity"):
            engine.add_facts("p", [(1, 2, 3)])
