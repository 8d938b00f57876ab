"""Evaluation engine semantics: both naive and semi-naive."""

import pytest

from repro.cylog.engine import (
    Relation,
    RelationStore,
    SemiNaiveEngine,
    naive_evaluate,
    run_rule_task,
)
from repro.cylog.errors import CyLogTypeError
from repro.cylog.parser import parse_program

TRANSITIVE = """
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
"""


@pytest.fixture(params=["naive", "semi"])
def evaluate(request):
    """Run the same assertions against both engines."""
    def run(source, extra=None):
        program = parse_program(source)
        if request.param == "naive":
            return naive_evaluate(program, extra)
        engine = SemiNaiveEngine(program)
        if extra:
            for pred, rows in extra.items():
                engine.add_facts(pred, rows)
        return engine.run()
    return run


class TestCoreSemantics:
    def test_transitive_closure(self, evaluate):
        result = evaluate(TRANSITIVE)
        paths = result.facts("path")
        assert (1, 4) in paths
        assert (2, 2) in paths  # cycle 2->3->4->2
        assert len(paths) == 12

    def test_join_with_constants(self, evaluate):
        result = evaluate("""
            likes("ann", "tea"). likes("bob", "tea"). likes("cat", "mice").
            tea_person(X) :- likes(X, "tea").
        """)
        assert result.facts("tea_person") == {("ann",), ("bob",)}

    def test_repeated_variable_in_atom(self, evaluate):
        result = evaluate("""
            p(1, 1). p(1, 2). p(3, 3).
            diag(X) :- p(X, X).
        """)
        assert result.facts("diag") == {(1,), (3,)}

    def test_negation(self, evaluate):
        result = evaluate("""
            person("a"). person("b").
            happy("a").
            sad(X) :- person(X), not happy(X).
        """)
        assert result.facts("sad") == {("b",)}

    def test_negation_with_wildcard(self, evaluate):
        result = evaluate("""
            person("a"). person("b").
            likes("a", "b").
            loner(X) :- person(X), not likes(X, _).
        """)
        assert result.facts("loner") == {("b",)}

    def test_comparison_filters(self, evaluate):
        result = evaluate("""
            age("a", 20). age("b", 15).
            adult(X) :- age(X, A), A >= 18.
        """)
        assert result.facts("adult") == {("a",)}

    def test_assignment_computes(self, evaluate):
        result = evaluate("""
            price("x", 10). price("y", 4).
            doubled(P, D) :- price(P, V), D = V * 2.
        """)
        assert result.facts("doubled") == {("x", 20), ("y", 8)}

    def test_assignment_as_equality_check(self, evaluate):
        result = evaluate("""
            p(2, 4). p(3, 5).
            matches(X) :- p(X, Y), Y = X * 2.
        """)
        assert result.facts("matches") == {(2,)}

    def test_extra_facts_injection(self, evaluate):
        result = evaluate(
            "reachable(X, Y) :- link(X, Y).",
            extra={"link": [("a", "b"), ("b", "c")]},
        )
        assert result.count("reachable") == 2

    def test_empty_relation_is_empty_frozenset(self, evaluate):
        result = evaluate("p(1).")
        assert result.facts("unknown") == frozenset()

    def test_zero_arity_predicates(self, evaluate):
        result = evaluate("""
            go().
            ready() :- go().
        """)
        assert result.facts("ready") == {()}


class TestAggregates:
    def test_count_groups(self, evaluate):
        result = evaluate("""
            speaks("a", "en"). speaks("b", "en"). speaks("c", "fr").
            per_lang(L, count<W>) :- speaks(W, L).
        """)
        assert result.facts("per_lang") == {("en", 2), ("fr", 1)}

    def test_sum_min_max_avg(self, evaluate):
        result = evaluate("""
            score("t", 10). score("t", 20). score("u", 5).
            stats(G, sum<S>, min<S>, max<S>, avg<S>) :- score(G, S).
        """)
        assert ("t", 30, 10, 20, 15.0) in result.facts("stats")
        assert ("u", 5, 5, 5, 5.0) in result.facts("stats")

    def test_count_distinct_semantics(self, evaluate):
        # b appears via two different justifications but counts once.
        result = evaluate("""
            p("x", "b"). q("y", "b").
            has(V) :- p(_, V).
            has(V) :- q(_, V).
            n(count<V>) :- has(V).
        """)
        assert result.facts("n") == {(1,)}

    def test_global_aggregate_no_group(self, evaluate):
        result = evaluate("""
            v(1). v(2). v(3).
            total(sum<X>) :- v(X).
        """)
        assert result.facts("total") == {(6,)}

    def test_aggregate_feeding_rule(self, evaluate):
        result = evaluate("""
            member("g1", "a"). member("g1", "b"). member("g2", "c").
            size(G, count<M>) :- member(G, M).
            big(G) :- size(G, N), N >= 2.
        """)
        assert result.facts("big") == {("g1",)}

    def test_aggregate_over_non_numeric_rejected(self, evaluate):
        with pytest.raises(CyLogTypeError):
            evaluate("""
                word("a"). word("b").
                t(sum<W>) :- word(W).
            """)


class TestIncremental:
    def test_monotone_continuation_equals_recompute(self):
        program = parse_program(TRANSITIVE)
        engine = SemiNaiveEngine(program)
        engine.run()
        engine.add_facts("edge", [(4, 5), (5, 6)])
        incremental = engine.run().facts("path")
        oracle = naive_evaluate(
            program, {"edge": [(4, 5), (5, 6)]}
        ).facts("path")
        assert incremental == oracle
        assert engine.runs == 1  # the continuation did not re-run from scratch

    def test_nonmonotone_updates_stay_incremental(self):
        """A fact arriving under negation retracts the defeated derivation
        in place — no full recomputation, and the run reports the delta."""
        program = parse_program("""
            p(1).
            only(X) :- p(X), not q(X).
        """)
        engine = SemiNaiveEngine(program)
        assert engine.run().facts("only") == {(1,)}
        engine.add_facts("q", [(1,)])
        result = engine.run()
        assert result.facts("only") == frozenset()
        assert result.removed("only") == {(1,)}
        assert result.added("q") == {(1,)}
        assert engine.runs == 1  # the update did not re-run from scratch
        assert engine.stats.incremental_runs == 1

    def test_duplicate_facts_not_counted(self):
        engine = SemiNaiveEngine(parse_program("p(X) :- base(X)."))
        assert engine.add_facts("base", [(1,), (1,)]) == 1
        assert engine.add_facts("base", [(1,)]) == 0

    def test_idb_facts_rejected(self):
        engine = SemiNaiveEngine(parse_program("p(X) :- base(X)."))
        with pytest.raises(CyLogTypeError, match="derived"):
            engine.add_facts("p", [(1,)])

    def test_facts_accessor_runs_lazily(self):
        engine = SemiNaiveEngine(parse_program("p(1). q(X) :- p(X)."))
        assert engine.facts("q") == {(1,)}

    def test_rule_tasks_run_inline_in_submission_order(self):
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


class TestRelation:
    def test_store_rejects_arity_mismatch(self):
        store = RelationStore()
        store.get("p", 2)
        with pytest.raises(CyLogTypeError):
            store.get("p", 3)

    def test_match_wildcards(self):
        relation = Relation(3)
        relation.add((1, "a", True))
        relation.add((1, "b", False))
        relation.add((2, "a", True))
        assert set(relation.match((1, None, None))) == {
            (1, "a", True), (1, "b", False),
        }
        assert set(relation.match((None, "a", None))) == {
            (1, "a", True), (2, "a", True),
        }
        assert set(relation.match((None, None, None))) == set(relation)

    def test_index_maintained_after_build(self):
        relation = Relation(2)
        relation.add((1, "x"))
        _ = list(relation.match((1, None)))  # build the index
        relation.add((1, "y"))
        assert set(relation.match((1, None))) == {(1, "x"), (1, "y")}

    def test_add_is_idempotent(self):
        relation = Relation(1)
        assert relation.add((1,)) is True
        assert relation.add((1,)) is False
        assert len(relation) == 1
