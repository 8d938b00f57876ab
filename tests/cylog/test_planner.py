"""Cost-based join planner: atom order, index keys, delta-first rewrites."""

from repro.cylog.ast import Assignment, Atom, Comparison, Negation
from repro.cylog.parser import parse_program
from repro.cylog.pretty import explain_program, explain_rule
from repro.cylog.safety import compile_program


def _first_rule(source, cardinalities=None):
    compiled = compile_program(parse_program(source), cardinalities=cardinalities)
    return compiled.rules[0]


def _predicates(join_plan):
    return [
        step.literal.predicate
        for step in join_plan.steps
        if isinstance(step.literal, Atom)
    ]


class TestAtomOrder:
    def test_small_relation_joins_first(self):
        rule = _first_rule(
            "r(X, Y) :- big(X, Y), tiny(X, Y).",
            cardinalities={"big": 10_000.0, "tiny": 3.0},
        )
        assert _predicates(rule.join_plan) == ["tiny", "big"]

    def test_fact_counts_are_the_default_cardinalities(self):
        source = (
            "big(1, 1). big(1, 2). big(2, 1). big(2, 2). big(3, 3).\n"
            "tiny(1, 1).\n"
            "r(X, Y) :- big(X, Y), tiny(X, Y)."
        )
        rule = _first_rule(source)
        assert _predicates(rule.join_plan) == ["tiny", "big"]

    def test_bound_atom_preferred_over_equal_cardinality_scan(self):
        # b("k", X) has a constant bound term, so its estimated cost is a
        # tenth of a's; it leads even though both relations are unknown.
        rule = _first_rule('r(X) :- a(X), b("k", X).')
        assert _predicates(rule.join_plan) == ["b", "a"]

    def test_negation_runs_after_its_binder_and_before_later_atoms(self):
        rule = _first_rule(
            "a(X) :- b(X), not c(X), d(X).",
            cardinalities={"b": 10.0, "d": 10.0},
        )
        kinds = [type(step.literal) for step in rule.join_plan.steps]
        assert kinds.index(Negation) > 0  # never first: needs X bound
        negation_step = rule.join_plan.steps[kinds.index(Negation)]
        assert negation_step.index_positions == (0,)

    def test_filters_placed_as_soon_as_ready(self):
        rule = _first_rule("a(X) :- X > 2, b(X).")
        assert isinstance(rule.join_plan.steps[0].literal, Atom)
        assert isinstance(rule.join_plan.steps[1].literal, Comparison)

    def test_assignment_ordering_preserved(self):
        rule = _first_rule("a(X, Y) :- b(X), Y = X + 1.")
        assert isinstance(rule.join_plan.steps[1].literal, Assignment)

    def test_aggregate_rule_planned_in_higher_stratum(self):
        compiled = compile_program(
            parse_program("n(G, count<X>) :- member(G, X).")
        )
        rule = compiled.rules[0]
        assert rule.stratum == 1
        assert _predicates(rule.join_plan) == ["member"]


class TestIndexKeys:
    def test_join_variable_becomes_index_key(self):
        rule = _first_rule(
            "r(X, Y) :- a(X), b(X, Y).", cardinalities={"a": 1.0, "b": 100.0}
        )
        steps = rule.join_plan.steps
        assert steps[0].literal.predicate == "a"
        assert steps[0].index_positions == ()  # leading atom scans
        assert steps[1].literal.predicate == "b"
        assert steps[1].index_positions == (0,)  # probed on the bound X

    def test_constant_positions_indexed(self):
        rule = _first_rule('r(X) :- likes(X, "tea").')
        assert rule.join_plan.steps[0].index_positions == (1,)

    def test_repeated_fresh_variable_not_indexed(self):
        # p(X, X): neither occurrence is bound beforehand; equality is
        # enforced while binding, not via the index key.
        rule = _first_rule("diag(X) :- p(X, X).")
        assert rule.join_plan.steps[0].index_positions == ()

    def test_index_specs_cover_plan_and_open_keys(self):
        compiled = compile_program(parse_program(
            "open t(seg: text, out: text) key (seg).\n"
            "r(S, T) :- seed(S), t(S, T)."
        ))
        specs = compiled.index_specs()
        assert (0,) in specs["t"]  # both the join probe and the answer key


class TestDeltaPlans:
    def test_right_recursion_rewritten_delta_first(self):
        rule = _first_rule(
            "reach(S, Y) :- link(X, Y), reach(S, X).",
            cardinalities={"link": 10_000.0},
        )
        [reach_position] = [
            position
            for position, step in enumerate(rule.join_plan.steps)
            if isinstance(step.literal, Atom)
            and step.literal.predicate == "reach"
        ]
        delta_plan = rule.delta_plans[reach_position]
        assert delta_plan.steps[0].literal.predicate == "reach"
        assert delta_plan.steps[0].index_positions == ()  # the delta is scanned
        assert delta_plan.steps[1].literal.predicate == "link"
        assert delta_plan.steps[1].index_positions == (0,)  # probed on X

    def test_every_positive_atom_gets_a_delta_plan(self):
        rule = _first_rule("p(X, Y) :- e(X, Z), f(Z, Y), X != Y.")
        atom_positions = {
            position
            for position, step in enumerate(rule.join_plan.steps)
            if isinstance(step.literal, Atom)
        }
        assert set(rule.delta_plans) == atom_positions


class TestExplain:
    def test_explain_rule_shows_access_paths(self):
        rule = _first_rule("r(X, Y) :- a(X), b(X, Y).")
        text = explain_rule(rule)
        assert "[scan]" in text
        assert "[idx(0)]" in text
        assert "delta[" in text

    def test_explain_program_covers_every_rule(self):
        compiled = compile_program(parse_program(
            "p(X) :- a(X).\nq(X) :- b(X)."
        ))
        text = explain_program(compiled)
        assert text.count(":-") == 2
