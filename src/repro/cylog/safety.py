"""Static analysis: rule compilation, safety and stratification.

Three properties are established before a program may run:

**Range restriction (safety).**  Every rule body must admit an evaluation
order in which each negation, comparison and arithmetic operand is fully
bound when reached, and every head variable is bound by the body.

**Task-safety.**  For every *open* (human-evaluated) atom in a rule body,
the variables in its key positions must be derivable from the rest of the
body without consulting the open atom itself — otherwise the processor
could not know which tasks to generate.  The derivation may go through
*other* open predicates, which is exactly how sequential dataflows chain
human steps (translate → verify).

**Stratification.**  Negation and aggregation must not occur inside a
recursive cycle.  Each predicate is assigned a stratum; rules are evaluated
stratum by stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.cylog.ast import (
    Assignment,
    Atom,
    BodyLiteral,
    Comparison,
    Const,
    Negation,
    OpenDecl,
    Program,
    Rule,
    Var,
    expr_variables,
)
from repro.cylog.errors import CyLogSafetyError, StratificationError
from repro.cylog.pretty import rule_to_source


#: Estimated extent of predicates with no facts in the program text (IDB and
#: open predicates); engines refine this with live fact counts at run time.
DEFAULT_CARDINALITY = 1000.0

#: Estimated fraction of a relation surviving one bound (equality) term.
BOUND_SELECTIVITY = 0.1

@dataclass(frozen=True)
class PlanStep:
    """One ordered body literal plus the index key chosen at plan time.

    ``index_positions`` are the term positions that are statically known to
    be bound (constants, or variables bound by earlier steps) when the step
    runs; the engine keeps a persistent hash index on exactly these
    positions.  Empty positions mean a full scan.
    """

    literal: BodyLiteral
    index_positions: tuple[int, ...] = ()
    estimated_cost: float = 0.0


@dataclass(frozen=True)
class JoinPlan:
    """An ordered sequence of :class:`PlanStep` for one rule body."""

    steps: tuple[PlanStep, ...]

    @property
    def literals(self) -> tuple[BodyLiteral, ...]:
        return tuple(step.literal for step in self.steps)

    @property
    def total_cost(self) -> float:
        return sum(step.estimated_cost for step in self.steps)

    @staticmethod
    def from_ordered(literals: Iterable[BodyLiteral]) -> "JoinPlan":
        """Wrap an already-ordered literal sequence, deriving index keys by
        simulating the binding flow in the given order."""
        steps: list[PlanStep] = []
        bound: set[str] = set()
        for literal in literals:
            steps.append(_make_step(literal, bound, None))
            bound |= _literal_binds(literal)
        return JoinPlan(tuple(steps))


@dataclass(frozen=True)
class SeedPlan:
    """How to compute task demand for one open atom occurrence.

    ``plan`` is the ordered sub-body to evaluate; the resulting bindings are
    projected onto the open atom's key positions.
    """

    open_atom: Atom
    decl: OpenDecl
    plan: tuple[BodyLiteral, ...]
    join_plan: JoinPlan = field(default=None, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.join_plan is None:
            object.__setattr__(self, "join_plan", JoinPlan.from_ordered(self.plan))


@dataclass(frozen=True)
class CompiledRule:
    """A rule with its evaluation order, stratum and open-atom seed plans.

    ``plan`` (the ordered literals) is kept for backwards compatibility;
    ``join_plan`` carries the same order plus per-atom index keys, and
    ``delta_plans`` maps a plan position holding a positive atom to a
    rewritten plan that evaluates the semi-naive delta for that atom *first*
    (the delta is usually tiny, so driving the join from it instead of
    re-scanning the leading atoms every round is the main speedup).
    """

    rule: Rule
    plan: tuple[BodyLiteral, ...]
    stratum: int
    seed_plans: tuple[SeedPlan, ...]
    join_plan: JoinPlan = field(default=None, compare=False)  # type: ignore[assignment]
    delta_plans: dict[int, JoinPlan] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.join_plan is None:
            object.__setattr__(self, "join_plan", JoinPlan.from_ordered(self.plan))


@dataclass(frozen=True)
class CompiledProgram:
    """Statically validated program ready for evaluation."""

    program: Program
    rules: tuple[CompiledRule, ...]
    strata_count: int
    predicate_strata: dict[str, int] = field(compare=False)
    is_monotone: bool = True

    @property
    def open_decls(self) -> dict[str, OpenDecl]:
        return self.program.open_by_name()

    def index_specs(self) -> dict[str, set[tuple[int, ...]]]:
        """Every (predicate, index-key) pair any plan may probe, so the
        engine can register persistent indexes before loading facts."""
        specs: dict[str, set[tuple[int, ...]]] = {}

        def collect(plan: JoinPlan) -> None:
            for step in plan.steps:
                literal = step.literal
                if isinstance(literal, Negation):
                    atom = literal.atom
                elif isinstance(literal, Atom):
                    atom = literal
                else:
                    continue
                if step.index_positions:
                    specs.setdefault(atom.predicate, set()).add(step.index_positions)

        for rule in self.rules:
            collect(rule.join_plan)
            for delta_plan in rule.delta_plans.values():
                collect(delta_plan)
            for seed in rule.seed_plans:
                collect(seed.join_plan)
        for decl in self.program.opens:
            if decl.key_positions:
                specs.setdefault(decl.name, set()).add(tuple(decl.key_positions))
        return specs


# ---------------------------------------------------------------------------
# Plan construction (greedy sideways-information-passing order)
# ---------------------------------------------------------------------------


def _literal_binds(literal: BodyLiteral) -> set[str]:
    """Variables a literal *can* bind once executed."""
    if isinstance(literal, Atom):
        return {v.name for v in literal.variables()}
    if isinstance(literal, Assignment):
        return {literal.var.name} if not literal.var.is_anonymous else set()
    return set()


def _literal_needs(literal: BodyLiteral) -> set[str]:
    """Variables that must already be bound for the literal to be ready."""
    if isinstance(literal, Atom):
        return set()  # positive atoms generate bindings
    if isinstance(literal, Negation):
        return {v.name for v in literal.variables()}
    if isinstance(literal, Comparison):
        return {v.name for v in literal.variables()}
    if isinstance(literal, Assignment):
        return {v.name for v in expr_variables(literal.expr)}
    raise TypeError(f"not a body literal: {literal!r}")


def _bound_positions(atom: Atom, bound: set[str]) -> tuple[int, ...]:
    """Term positions statically known to be bound given ``bound`` vars."""
    positions: list[int] = []
    for index, term in enumerate(atom.terms):
        if isinstance(term, Const):
            positions.append(index)
        elif isinstance(term, Var) and not term.is_anonymous and term.name in bound:
            positions.append(index)
    return tuple(positions)


def _estimate_cost(
    atom: Atom, bound: set[str], cardinalities: Mapping[str, float]
) -> float:
    """Estimated rows scanned when joining ``atom`` next: relation
    cardinality discounted by the selectivity of each bound term."""
    cardinality = cardinalities.get(atom.predicate, DEFAULT_CARDINALITY)
    bound_terms = len(_bound_positions(atom, bound))
    return max(cardinality * (BOUND_SELECTIVITY**bound_terms), 0.5)


def _fresh_var_count(atom: Atom, bound: set[str]) -> int:
    return len(
        {
            term.name
            for term in atom.terms
            if isinstance(term, Var)
            and not term.is_anonymous
            and term.name not in bound
        }
    )


def _make_step(
    literal: BodyLiteral,
    bound: set[str],
    cardinalities: Mapping[str, float] | None,
) -> PlanStep:
    if isinstance(literal, Atom):
        cost = (
            _estimate_cost(literal, bound, cardinalities)
            if cardinalities is not None
            else 0.0
        )
        return PlanStep(literal, _bound_positions(literal, bound), cost)
    if isinstance(literal, Negation):
        return PlanStep(literal, _bound_positions(literal.atom, bound))
    return PlanStep(literal)


def build_join_plan(
    literals: Iterable[BodyLiteral],
    exclude: BodyLiteral | None = None,
    best_effort: bool = False,
    cardinalities: Mapping[str, float] | None = None,
    first: BodyLiteral | None = None,
    initial_bound: Iterable[str] = (),
) -> tuple[JoinPlan, set[str]]:
    """Greedily order ``literals`` so every literal is ready when reached.

    Returns ``(join_plan, bound_variables)``.  Atoms are chosen by estimated
    selectivity (relation cardinality discounted per bound term); filters
    run as soon as their variables are bound.  ``first`` forces one literal to the
    front (the delta-first semi-naive rewrite).  ``initial_bound`` names
    variables the caller will supply at evaluation time (head variables in
    re-derivation checks, group keys in per-group aggregate maintenance),
    so index keys can cover them.  With ``best_effort=True`` the builder
    stops silently when nothing more is ready (used for seed plans);
    otherwise unplaceable literals raise :class:`CyLogSafetyError`.
    """
    cardinalities = cardinalities if cardinalities is not None else {}
    remaining = [lit for lit in literals if lit is not exclude and lit is not first]
    steps: list[PlanStep] = []
    bound: set[str] = set(initial_bound)
    if first is not None:
        steps.append(_make_step(first, bound, cardinalities))
        bound |= _literal_binds(first)
    while remaining:
        ready_filters = [
            lit
            for lit in remaining
            if not isinstance(lit, Atom) and _literal_needs(lit) <= bound
        ]
        if ready_filters:
            chosen = ready_filters[0]  # cheap filters as early as possible
        else:
            atoms = [lit for lit in remaining if isinstance(lit, Atom)]
            if not atoms:
                if best_effort:
                    break
                stuck = ", ".join(sorted(_literal_needs(remaining[0]) - bound))
                raise CyLogSafetyError(
                    f"unsafe rule: variable(s) {stuck} are never bound by a "
                    "positive literal"
                )
            chosen = min(
                atoms,
                key=lambda atom: (
                    _estimate_cost(atom, bound, cardinalities),
                    _fresh_var_count(atom, bound),
                    remaining.index(atom),
                ),
            )
        steps.append(_make_step(chosen, bound, cardinalities))
        remaining.remove(chosen)
        bound |= _literal_binds(chosen)
    return JoinPlan(tuple(steps)), bound


def program_cardinalities(program: Program) -> dict[str, float]:
    """Base cardinality estimates from the facts in the program text."""
    counts: dict[str, float] = {}
    for fact in program.facts:
        counts[fact.atom.predicate] = counts.get(fact.atom.predicate, 0.0) + 1.0
    return counts


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def _dependency_edges(program: Program) -> list[tuple[str, str, bool]]:
    """Edges ``(body_pred, head_pred, is_negative)``; aggregates make every
    body dependency negative (the head stratum must strictly exceed them)."""
    edges: list[tuple[str, str, bool]] = []
    for rule in program.rules:
        aggregated = rule.head.has_aggregates
        for literal in rule.body:
            if isinstance(literal, Atom):
                edges.append((literal.predicate, rule.head.predicate, aggregated))
            elif isinstance(literal, Negation):
                edges.append((literal.atom.predicate, rule.head.predicate, True))
    return edges


def stratify(program: Program) -> tuple[dict[str, int], int]:
    """Assign a stratum to every predicate.

    Returns ``(predicate -> stratum, number_of_strata)``; raises
    :class:`StratificationError` when negation/aggregation is recursive.
    """
    predicates = sorted(program.predicates())
    edges = _dependency_edges(program)
    sccs = _tarjan_sccs(predicates, edges)
    component_of = {
        pred: index for index, component in enumerate(sccs) for pred in component
    }
    # Negative edge inside one SCC => unstratifiable.
    for source, target, negative in edges:
        if negative and component_of[source] == component_of[target]:
            raise StratificationError(
                "negation/aggregation through recursion between "
                f"{source!r} and {target!r}"
            )
    # Longest path over the condensation: negative edges add one stratum.
    strata = [0] * len(sccs)
    # SCCs from Tarjan come out in reverse topological order.
    for component_index in range(len(sccs) - 1, -1, -1):
        for source, target, negative in edges:
            if component_of[target] != component_index:
                continue
            source_component = component_of[source]
            if source_component == component_index:
                continue
            candidate = strata[source_component] + (1 if negative else 0)
            if candidate > strata[component_index]:
                strata[component_index] = candidate
    predicate_strata = {pred: strata[component_of[pred]] for pred in predicates}
    strata_count = max(strata) + 1 if strata else 1
    return predicate_strata, strata_count


def _tarjan_sccs(
    nodes: list[str], edges: list[tuple[str, str, bool]]
) -> list[list[str]]:
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for source, target, _ in edges:
        adjacency[source].append(target)
    index_counter = 0
    indexes: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []

    for root in nodes:
        if root in indexes:
            continue
        work = [(root, iter(adjacency[root]))]
        indexes[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in indexes:
                    indexes[neighbour] = lowlinks[neighbour] = index_counter
                    index_counter += 1
                    stack.append(neighbour)
                    on_stack.add(neighbour)
                    work.append((neighbour, iter(adjacency[neighbour])))
                    advanced = True
                    break
                if neighbour in on_stack:
                    lowlinks[node] = min(lowlinks[node], indexes[neighbour])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indexes[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


# ---------------------------------------------------------------------------
# Whole-program compilation
# ---------------------------------------------------------------------------


def compile_program(
    program: Program,
    cardinalities: Mapping[str, float] | None = None,
) -> CompiledProgram:
    """Validate and compile ``program`` for evaluation.

    ``cardinalities`` (predicate -> estimated fact count) steers the
    cost-based join planner; it defaults to the fact counts in the program
    text.  Engines re-invoke compilation with live fact counts before a full
    run, so plans track the actual data.  Every positive body atom gets a
    delta-first rewrite (:attr:`CompiledRule.delta_plans`).
    """
    stats = program_cardinalities(program)
    if cardinalities:
        stats.update(cardinalities)
    predicate_strata, strata_count = stratify(program)
    opens = program.open_by_name()
    compiled_rules: list[CompiledRule] = []
    monotone = True
    for rule in program.rules:
        if rule.head.has_aggregates:
            monotone = False
        join_plan, bound = build_join_plan(rule.body, cardinalities=stats)
        _check_head_bound(rule, bound)
        delta_plans: dict[int, JoinPlan] = {}
        for position, step in enumerate(join_plan.steps):
            if not isinstance(step.literal, Atom):
                continue
            delta_plan, _ = build_join_plan(
                rule.body, cardinalities=stats, first=step.literal
            )
            delta_plans[position] = delta_plan
        seed_plans: list[SeedPlan] = []
        for literal in rule.body:
            if isinstance(literal, Negation):
                monotone = False
            if not isinstance(literal, Atom) or literal.predicate not in opens:
                continue
            decl = opens[literal.predicate]
            seed_join_plan, seed_bound = build_join_plan(
                rule.body,
                exclude=literal,
                best_effort=True,
                cardinalities=stats,
            )
            missing = _unbound_key_vars(literal, decl, seed_bound)
            if missing:
                raise CyLogSafetyError(
                    f"task-unsafe rule {rule_to_source(rule)!r}: key variable(s) "
                    f"{', '.join(sorted(missing))} of open predicate "
                    f"{decl.name!r} cannot be bound without the open atom itself"
                )
            seed_plans.append(
                SeedPlan(
                    open_atom=literal,
                    decl=decl,
                    plan=seed_join_plan.literals,
                    join_plan=seed_join_plan,
                )
            )
        compiled_rules.append(
            CompiledRule(
                rule=rule,
                plan=join_plan.literals,
                stratum=predicate_strata[rule.head.predicate],
                seed_plans=tuple(seed_plans),
                join_plan=join_plan,
                delta_plans=delta_plans,
            )
        )
    return CompiledProgram(
        program=program,
        rules=tuple(compiled_rules),
        strata_count=strata_count,
        predicate_strata=predicate_strata,
        is_monotone=monotone,
    )


def _check_head_bound(rule: Rule, bound: set[str]) -> None:
    head_vars: set[str] = set()
    for term in rule.head.terms:
        if isinstance(term, Var) and not term.is_anonymous:
            head_vars.add(term.name)
    for aggregate in rule.head.aggregate_terms():
        head_vars.add(aggregate.var.name)
    unbound = head_vars - bound
    if unbound:
        raise CyLogSafetyError(
            f"unsafe rule {rule_to_source(rule)!r}: head variable(s) "
            f"{', '.join(sorted(unbound))} not bound by the body"
        )


def _unbound_key_vars(atom: Atom, decl: OpenDecl, bound: set[str]) -> set[str]:
    missing: set[str] = set()
    for position in decl.key_positions:
        term = atom.terms[position]
        if isinstance(term, Var) and not term.is_anonymous and term.name not in bound:
            missing.add(term.name)
        if isinstance(term, Var) and term.is_anonymous:
            missing.add("_")
    return missing
