"""Bottom-up evaluation: naive reference engine and semi-naive engine.

Both engines implement the same semantics — stratified Datalog with
negation, aggregation, comparisons and assignments — over tuple stores with
persistent, incrementally maintained hash indexes (see
:mod:`repro.cylog.indexes`).  Evaluation consumes the per-rule
:class:`~repro.cylog.safety.JoinPlan` emitted by the compiler: body atoms
are cost-ordered and each atom's index key is fixed at plan time, and
recursive rules use *delta-first* rewrites so each semi-naive round drives
the join from the (small) delta instead of re-scanning the leading atoms.

:class:`SemiNaiveEngine` is *incremental across runs*: the
:class:`RelationStore` and the derivation provenance recorded in a
:class:`~repro.cylog.incremental.SupportIndex` are retained between
``run()`` calls, so a run propagates only the queued base-fact additions
and retractions stratum by stratum — support counting deletes exactly the
derivations that lost their footing, recursive strata fall back to
DRed-style over-delete / re-derive, and negation and aggregation are
maintained through trigger plans and recompute-and-diff respectively.
Every run reports what changed through ``EvaluationResult.added`` /
``removed``, which the CyLog processor and the platform consume as
first-class deltas.

Each semi-naive round's (rule, delta atom) tasks run inline through the
one runner, :func:`run_rule_task`, all against the pre-round store, and
results merge serially in submission order.  Strata evaluate in index
order, which stratification makes topological.

:func:`naive_evaluate` exists as an oracle for differential testing and as
the baseline for the E10 bench.  Both report work counters through
:class:`EngineStats`, which plugs into :class:`repro.metrics.Collector`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.cylog.ast import (
    AggregateTerm,
    Assignment,
    Atom,
    Comparison,
    Const,
    Negation,
    Program,
    Var,
)
from repro.cylog.builtins import apply_comparison, eval_expr
from repro.cylog.errors import CyLogTypeError
from repro.cylog.incremental import (
    DeltaLedger,
    RetractionScheduler,
    SupportIndex,
    SupportKey,
    partition_recursive,
)
from repro.cylog.indexes import TupleIndexSet
from repro.cylog.pretty import explain_rule
from repro.cylog.safety import (
    CompiledProgram,
    CompiledRule,
    JoinPlan,
    build_join_plan,
    compile_program,
)
from repro.metrics.counters import CounterRecord

Tuple_ = tuple[Any, ...]
Bindings = dict[str, Any]


@dataclass
class EngineStats(CounterRecord):
    """Work counters for one engine instance (or one naive evaluation).

    ``index_hits`` counts indexed lookups, ``full_scans`` unindexed relation
    scans, and ``tuples_joined`` the candidate rows those probes produced —
    the ratio is the direct measure of how much the planner's index choices
    help.  The delta counters measure cross-run incrementality:
    ``tuples_retracted`` / ``tuples_rederived`` / ``overdeletions`` trace the
    counting + DRed deletion machinery and ``supports_recorded`` the
    provenance kept for it.  Feed the counters into a metrics collector with
    :meth:`to_collector` (once per collector — the values are cumulative).
    Evaluation tasks count their work in scratch records, which the
    engine absorbs serially in submission order.
    """

    collector_prefix = "cylog_engine"

    full_runs: int = 0
    incremental_runs: int = 0
    rounds: int = 0
    rules_fired: int = 0
    tuples_derived: int = 0
    tuples_joined: int = 0
    index_hits: int = 0
    full_scans: int = 0
    retractions: int = 0
    tuples_retracted: int = 0
    tuples_rederived: int = 0
    overdeletions: int = 0
    supports_recorded: int = 0
    agg_recomputes: int = 0
    #: Rows copied into relation snapshots (:meth:`Relation.snapshot` is
    #: cached, so a run that changed nothing copies none, and reads after
    #: a run copy nothing).
    tuples_copied: int = 0
    plans: dict[str, str] = field(default_factory=dict)

    def derivation_counters(self) -> dict[str, int]:
        """The merge-side counters: what was derived, retracted,
        re-derived and recorded — not how many probes found it."""
        keys = (
            "full_runs",
            "incremental_runs",
            "rounds",
            "rules_fired",
            "tuples_derived",
            "retractions",
            "tuples_retracted",
            "tuples_rederived",
            "overdeletions",
            "supports_recorded",
            "agg_recomputes",
        )
        full = self.as_dict()
        return {key: full[key] for key in keys}


class Relation:
    """A set of same-arity tuples with incrementally maintained indexes.

    Index keys (tuples of term positions) are registered up front from the
    compiled join plans via :meth:`ensure_index`; every :meth:`add` and
    :meth:`discard` then updates all registered indexes, so lookups never
    rebuild.  Unregistered keys still work — they are built lazily on first
    probe and maintained from then on.

    :meth:`snapshot` returns a cached immutable copy, rebuilt only after an
    ``add``/``discard`` that changed the relation; ``tuples_copied`` counts
    the rows copied into those rebuilds.
    """

    __slots__ = ("arity", "_tuples", "_indexes", "_snapshot", "tuples_copied")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] = ()) -> None:
        self.arity = arity
        self._tuples: set[Tuple_] = set()
        self._indexes = TupleIndexSet()
        self._snapshot: frozenset | None = frozenset()
        self.tuples_copied = 0
        for positions in index_specs:
            self._indexes.ensure(positions, ())

    def add(self, row: Tuple_) -> bool:
        """Insert ``row``; returns True when it was new."""
        if row in self._tuples:
            return False
        self._tuples.add(row)
        self._indexes.insert(row)
        self._snapshot = None
        return True

    def add_many(self, rows: Iterable[Tuple_]) -> set[Tuple_]:
        """Insert many rows, returning the subset that was new."""
        added = set()
        for row in rows:
            if self.add(row):
                added.add(row)
        return added

    def discard(self, row: Tuple_) -> bool:
        """Remove ``row`` from the set and every index; True when present."""
        if row not in self._tuples:
            return False
        self._tuples.discard(row)
        self._indexes.remove(row)
        self._snapshot = None
        return True

    def ensure_index(self, positions: tuple[int, ...]) -> None:
        """Register (and backfill) an index on ``positions``."""
        self._indexes.ensure(positions, self._tuples)

    def lookup(self, positions: tuple[int, ...], key: Tuple_):
        """Rows whose ``positions`` project onto ``key`` (live set; do not
        mutate).  ``positions == ()`` returns every row."""
        if not positions:
            return self._tuples
        if not self._indexes.has(positions):
            self._indexes.ensure(positions, self._tuples)
        return self._indexes.rows(positions, key)

    def match(self, pattern: Sequence[Any]) -> Iterable[Tuple_]:
        """Rows matching ``pattern`` (``None`` entries are wildcards)."""
        positions = tuple(i for i, v in enumerate(pattern) if v is not None)
        return self.lookup(positions, tuple(pattern[p] for p in positions))

    def __contains__(self, row: Tuple_) -> bool:
        return row in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self._tuples)

    def snapshot(self) -> frozenset:
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset(self._tuples)
            self.tuples_copied += len(snapshot)
        return snapshot


class RelationStore:
    """Predicate name -> :class:`Relation`, creating on first use.

    ``index_specs`` (predicate -> set of index-key positions, from
    :meth:`CompiledProgram.index_specs`) are applied to every relation as it
    is created, so plan-chosen indexes exist before the first probe.
    """

    def __init__(
        self, index_specs: Mapping[str, Iterable[tuple[int, ...]]] | None = None
    ) -> None:
        self._relations: dict[str, Relation] = {}
        self._index_specs = dict(index_specs or {})

    def get(self, predicate: str, arity: int) -> Relation:
        relation = self._relations.get(predicate)
        if relation is None:
            relation = Relation(arity, self._index_specs.get(predicate, ()))
            self._relations[predicate] = relation
        elif relation.arity != arity:
            raise CyLogTypeError(
                f"predicate {predicate!r} used with arity {arity}, "
                f"stored with arity {relation.arity}"
            )
        return relation

    def maybe(self, predicate: str) -> Relation | None:
        return self._relations.get(predicate)

    def predicates(self) -> list[str]:
        return sorted(self._relations)

    def snapshot(self) -> dict[str, frozenset]:
        """Every relation's cached snapshot; only relations changed since
        their last snapshot are copied."""
        return {name: rel.snapshot() for name, rel in self._relations.items()}

    def tuples_copied(self) -> int:
        """Rows copied into relation snapshots over this store's life."""
        return sum(rel.tuples_copied for rel in self._relations.values())

    def fingerprint(self) -> str:
        """Stable content digest; equal iff snapshots are byte-identical."""
        return fingerprint_snapshot(self.snapshot())


def fingerprint_snapshot(snapshot: Mapping[str, frozenset]) -> str:
    """A stable content digest of a relation snapshot.

    Rows are serialised by ``repr`` and sorted, so two stores agree on the
    fingerprint exactly when their snapshots are byte-identical —
    regardless of hash randomisation.
    """
    digest = hashlib.sha256()
    for predicate in sorted(snapshot):
        digest.update(predicate.encode("utf-8"))
        digest.update(b"\x00")
        for row in sorted(snapshot[predicate], key=repr):
            digest.update(repr(row).encode("utf-8"))
            digest.update(b"\x01")
    return digest.hexdigest()


_EMPTY_ROWS: frozenset = frozenset()


@dataclass(frozen=True)
class EvaluationResult:
    """Immutable snapshot of every relation after evaluation.

    Snapshots are cached per relation and shared between results: a
    relation no later run changed is the same frozenset object in each,
    and a changed one gets a new frozenset, so a result held across later
    runs still shows its own fixpoint.

    ``added_rows`` / ``removed_rows`` report the net change this run made
    relative to the engine's previous fixpoint (empty on oracle evaluations
    and on runs with nothing pending); :meth:`added` / :meth:`removed` are
    the per-predicate accessors the processor and the platform consume.
    """

    relations: Mapping[str, frozenset]
    added_rows: Mapping[str, frozenset] = field(default_factory=dict)
    removed_rows: Mapping[str, frozenset] = field(default_factory=dict)

    def facts(self, predicate: str) -> frozenset:
        """All tuples of ``predicate`` (empty when unknown)."""
        return self.relations.get(predicate, _EMPTY_ROWS)

    def sorted_facts(self, predicate: str) -> list[Tuple_]:
        return sorted(self.facts(predicate), key=repr)

    def count(self, predicate: str) -> int:
        return len(self.facts(predicate))

    def added(self, predicate: str) -> frozenset:
        """Tuples of ``predicate`` derived (or asserted) by this run."""
        return self.added_rows.get(predicate, _EMPTY_ROWS)

    def removed(self, predicate: str) -> frozenset:
        """Tuples of ``predicate`` retracted by this run."""
        return self.removed_rows.get(predicate, _EMPTY_ROWS)

    def changed_predicates(self) -> list[str]:
        return sorted(set(self.added_rows) | set(self.removed_rows))

    def has_changes(self) -> bool:
        return bool(self.added_rows) or bool(self.removed_rows)


# ---------------------------------------------------------------------------
# Joining one rule body
# ---------------------------------------------------------------------------


def _bind_atom(atom: Atom, row: Tuple_, bindings: Bindings) -> Bindings | None:
    """Extend ``bindings`` with the atom's fresh variables from ``row``.

    Returns ``None`` when a repeated variable disagrees; constants and bound
    variables were already enforced by the index key.
    """
    extended: Bindings | None = None
    for position, term in enumerate(atom.terms):
        if not isinstance(term, Var) or term.is_anonymous:
            continue
        value = row[position]
        current = bindings if extended is None else extended
        if term.name in current:
            if current[term.name] != value or (
                isinstance(current[term.name], bool) != isinstance(value, bool)
            ):
                return None
            continue
        if extended is None:
            extended = dict(bindings)
        extended[term.name] = value
    return extended if extended is not None else dict(bindings)


def _index_key(atom: Atom, positions: tuple[int, ...], bindings: Bindings) -> Tuple_:
    """The concrete lookup key for the plan-chosen index positions."""
    key: list[Any] = []
    for position in positions:
        term = atom.terms[position]
        if isinstance(term, Const):
            key.append(term.value)
        else:
            key.append(bindings[term.name])
    return tuple(key)


def solutions(
    plan: JoinPlan | Sequence,
    store: RelationStore,
    initial: Bindings | None = None,
    delta_relation: Relation | None = None,
    stats: EngineStats | None = None,
) -> Iterator[Bindings]:
    """Yield every binding satisfying ``plan``.

    ``plan`` is a compiled :class:`JoinPlan` (or a plain ordered literal
    sequence, wrapped on the fly).  ``delta_relation`` implements the
    delta-first semi-naive rewrite: the plan's leading atom reads from the
    delta relation instead of the full store.
    """
    if not isinstance(plan, JoinPlan):
        plan = JoinPlan.from_ordered(plan)
    steps = plan.steps

    def recurse(position: int, bindings: Bindings) -> Iterator[Bindings]:
        if position == len(steps):
            yield bindings
            return
        step = steps[position]
        literal = step.literal
        if isinstance(literal, Atom):
            if position == 0 and delta_relation is not None:
                relation: Relation | None = delta_relation
            else:
                relation = store.maybe(literal.predicate)
            if relation is None or relation.arity != literal.arity:
                return  # no facts yet for this predicate
            rows = relation.lookup(
                step.index_positions,
                _index_key(literal, step.index_positions, bindings),
            )
            if stats is not None:
                if step.index_positions:
                    stats.index_hits += 1
                else:
                    stats.full_scans += 1
                stats.tuples_joined += len(rows)
            for row in rows:
                extended = _bind_atom(literal, row, bindings)
                if extended is not None:
                    yield from recurse(position + 1, extended)
            return
        if isinstance(literal, Negation):
            relation = store.maybe(literal.atom.predicate)
            if relation is not None and relation.arity == literal.atom.arity:
                rows = relation.lookup(
                    step.index_positions,
                    _index_key(literal.atom, step.index_positions, bindings),
                )
                if stats is not None:
                    if step.index_positions:
                        stats.index_hits += 1
                    else:
                        stats.full_scans += 1
                if rows:
                    return  # a match defeats the negation
            yield from recurse(position + 1, bindings)
            return
        if isinstance(literal, Comparison):
            left = eval_expr(literal.left, bindings)
            right = eval_expr(literal.right, bindings)
            if apply_comparison(literal.op, left, right):
                yield from recurse(position + 1, bindings)
            return
        if isinstance(literal, Assignment):
            value = eval_expr(literal.expr, bindings)
            name = literal.var.name
            if literal.var.is_anonymous:
                yield from recurse(position + 1, bindings)
                return
            if name in bindings:
                if apply_comparison("==", bindings[name], value):
                    yield from recurse(position + 1, bindings)
                return
            extended = dict(bindings)
            extended[name] = value
            yield from recurse(position + 1, extended)
            return
        raise CyLogTypeError(f"unknown literal in plan: {literal!r}")

    yield from recurse(0, dict(initial or {}))


def _head_tuple(rule: CompiledRule, bindings: Bindings) -> Tuple_:
    values: list[Any] = []
    for term in rule.rule.head.terms:
        if isinstance(term, Const):
            values.append(term.value)
        elif isinstance(term, Var):
            values.append(bindings[term.name])
        else:  # pragma: no cover - aggregates handled separately
            raise CyLogTypeError("aggregate rule evaluated as plain rule")
    return tuple(values)


def _head_bindings(rule: CompiledRule, row: Tuple_) -> Bindings | None:
    """Bindings pinning the rule's head to ``row`` (for re-derivation).

    Returns ``None`` when the head cannot produce ``row`` (constant
    mismatch, repeated-variable conflict).
    """
    bindings: Bindings = {}
    for term, value in zip(rule.rule.head.terms, row):
        if isinstance(term, Const):
            if term.value != value or (
                isinstance(term.value, bool) != isinstance(value, bool)
            ):
                return None
        elif isinstance(term, Var) and not term.is_anonymous:
            if term.name in bindings:
                if bindings[term.name] != value or (
                    isinstance(bindings[term.name], bool) != isinstance(value, bool)
                ):
                    return None
            else:
                bindings[term.name] = value
    return bindings


def _dep_row(atom: Atom, bindings: Bindings) -> Tuple_:
    """The body row ``atom`` consumed under ``bindings``; ``None`` marks
    positions hidden behind anonymous variables."""
    values: list[Any] = []
    for term in atom.terms:
        if isinstance(term, Const):
            values.append(term.value)
        elif term.is_anonymous:
            values.append(None)
        else:
            values.append(bindings[term.name])
    return tuple(values)


def support_key_for(
    rule_index: int, rule: CompiledRule, bindings: Bindings
) -> "SupportKey":
    """The derivation identity of one rule firing: the rule plus the
    positive body rows it consumed."""
    deps = tuple(
        (atom.predicate, _dep_row(atom, bindings))
        for atom in rule.rule.body_atoms()
    )
    return (rule_index, deps)


#: One semi-naive evaluation task: (rule index, join-plan position of the
#: delta atom, the delta relation).
_Task = tuple[int, int, Relation]


def run_rule_task(
    compiled: CompiledProgram,
    store: RelationStore,
    rule_index: int,
    position: int | None,
    delta: Relation | None,
) -> tuple[list[tuple[Tuple_, SupportKey]], EngineStats]:
    """Fire one compiled rule against ``store``: the one task runner.

    With a ``position`` the rule's delta-first rewrite for that body atom
    is driven by the ``delta`` partition; ``position=None`` evaluates the
    whole body (round 0 of a full run).  The runner only *reads* the store
    and counts work into a scratch stats record; the caller merges the
    derived ``(head row, support key)`` pairs and the counters serially
    in submission order.
    """
    rule = compiled.rules[rule_index]
    scratch = EngineStats()
    if position is None:
        bindings_iter = solutions(rule.join_plan, store, stats=scratch)
    else:
        bindings_iter = solutions(
            rule.delta_plans[position],
            store,
            delta_relation=delta,
            stats=scratch,
        )
    derived = [
        (_head_tuple(rule, b), support_key_for(rule_index, rule, b))
        for b in bindings_iter
    ]
    return derived, scratch


_AGG_FUNCS = {
    "count": lambda values: len(values),
    "sum": lambda values: sum(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
    "avg": lambda values: sum(values) / len(values),
}


def _fold_aggregate_row(head, key: Tuple_, per_agg: dict[str, set]) -> Tuple_:
    """Assemble one head row from a group key and its collected value sets."""
    key_iter = iter(key)
    values: list[Any] = []
    for term in head.terms:
        if isinstance(term, AggregateTerm):
            collected = sorted(per_agg[term.var.name], key=repr)
            if term.func != "count" and any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in collected
            ):
                raise CyLogTypeError(
                    f"aggregate {term.func}<{term.var.name}> over "
                    "non-numeric values"
                )
            values.append(_AGG_FUNCS[term.func](collected))
        elif isinstance(term, Const):
            values.append(term.value)
        else:
            values.append(next(key_iter))
    return tuple(values)


def _row_group_key(head, row: Tuple_) -> Tuple_:
    """The group key a stored aggregate row belongs to (plain-var positions,
    head order — mirroring the key built during evaluation)."""
    return tuple(
        value
        for term, value in zip(head.terms, row)
        if isinstance(term, Var) and not term.is_anonymous
    )


def _agg_support_pred(head: str, rule_index: int) -> str:
    """Synthetic support-index predicate recording which aggregate *groups*
    consumed which body rows (join bodies only).  The section-sign
    separator cannot appear in a parsed predicate name, so the synthetic
    namespace never collides with user relations."""
    return f"{head}§agg{rule_index}"


def _agg_body_is_join(rule: CompiledRule) -> bool:
    """True when the aggregate rule's body joins two or more positive
    atoms — the case whose group localisation needs recorded provenance
    (a single atom binds its group keys directly from the changed rows)."""
    return sum(1 for literal in rule.rule.body if isinstance(literal, Atom)) > 1


def _evaluate_aggregate_rule(
    rule: CompiledRule, store: RelationStore, stats: EngineStats | None = None
) -> set[Tuple_]:
    """Group body solutions and fold aggregates (set semantics: the
    aggregated variable is collected as a *set* per group)."""
    head = rule.rule.head
    groups: dict[Tuple_, dict[str, set]] = {}
    aggregates = head.aggregate_terms()
    group_vars = head.group_by_vars()
    for bindings in solutions(rule.join_plan, store, stats=stats):
        key = tuple(bindings[v.name] for v in group_vars)
        per_agg = groups.setdefault(key, {a.var.name: set() for a in aggregates})
        for aggregate in aggregates:
            per_agg[aggregate.var.name].add(bindings[aggregate.var.name])
    return {_fold_aggregate_row(head, key, per_agg) for key, per_agg in groups.items()}


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _load_base_facts(
    compiled: CompiledProgram,
    store: RelationStore,
    extra_facts: Mapping[str, Iterable[Tuple_]] | None,
) -> None:
    for fact in compiled.program.facts:
        store.get(fact.atom.predicate, fact.atom.arity).add(
            tuple(t.value for t in fact.atom.terms)  # type: ignore[union-attr]
        )
    if extra_facts:
        for predicate, rows in extra_facts.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                continue
            arity = len(rows[0])
            relation = store.get(predicate, arity)
            for row in rows:
                if len(row) != arity:
                    raise CyLogTypeError(
                        f"mixed arity facts supplied for {predicate!r}"
                    )
                relation.add(row)


def naive_evaluate(
    program: Program | CompiledProgram,
    extra_facts: Mapping[str, Iterable[Tuple_]] | None = None,
    stats: EngineStats | None = None,
) -> EvaluationResult:
    """Reference naive evaluation: recompute every rule until fixpoint.

    Exponentially slower than semi-naive on recursive programs but obviously
    correct; used as the differential-testing oracle.
    """
    compiled = (
        program if isinstance(program, CompiledProgram) else compile_program(program)
    )
    store = RelationStore(compiled.index_specs())
    _load_base_facts(compiled, store, extra_facts)
    for stratum in range(compiled.strata_count):
        stratum_rules = [r for r in compiled.rules if r.stratum == stratum]
        aggregate_rules = [r for r in stratum_rules if r.rule.head.has_aggregates]
        plain_rules = [r for r in stratum_rules if not r.rule.head.has_aggregates]
        for rule in aggregate_rules:
            relation = store.get(rule.rule.head.predicate, rule.rule.head.arity)
            for row in _evaluate_aggregate_rule(rule, store, stats):
                relation.add(row)
        changed = True
        while changed:
            changed = False
            for rule in plain_rules:
                relation = store.get(rule.rule.head.predicate, rule.rule.head.arity)
                if stats is not None:
                    stats.rules_fired += 1
                derived = [
                    _head_tuple(rule, bindings)
                    for bindings in solutions(rule.join_plan, store, stats=stats)
                ]
                for row in derived:
                    if relation.add(row):
                        if stats is not None:
                            stats.tuples_derived += 1
                        changed = True
    return EvaluationResult(store.snapshot())


@dataclass(frozen=True)
class _StratumInfo:
    """Per-stratum rule partition used by both run modes.

    ``recursive`` holds the head predicates on a positive within-stratum
    cycle — the ones whose deletions need DRed over-delete / re-derive
    instead of pure support counting.
    """

    plain: tuple[tuple[int, CompiledRule], ...]
    aggregates: tuple[tuple[int, CompiledRule], ...]
    heads: frozenset[str]
    recursive: frozenset[str]
    #: Predicates read positively by the stratum's plain rules.
    referenced: frozenset[str]
    #: (rule_index, rule, negation literal) triples for the stratum.
    negations: tuple[tuple[int, CompiledRule, Negation], ...]
    #: Per aggregate rule index, every predicate its body mentions.
    agg_inputs: dict[int, frozenset[str]] = field(default_factory=dict)


class SemiNaiveEngine:
    """Stratified semi-naive engine, incremental *across* ``run()`` calls.

    The relation store, the per-derivation support index and the per-rule
    aggregate outputs survive between runs; :meth:`add_facts` and
    :meth:`retract_facts` queue per-predicate deltas and the next
    :meth:`run` propagates exactly those, stratum by stratum, reusing the
    compiled delta-first join plans.  Deletion is handled by support
    counting (exact outside recursion) with DRed over-delete / re-derive
    inside recursive components, and negation/aggregation are maintained
    through trigger plans and recompute-and-diff — so ``revoke``-style
    updates no longer force a full recomputation.  ``run(full=True)`` is
    the from-scratch escape hatch (it also re-plans joins against the live
    base-fact cardinalities).

    Each round's (rule, delta atom) tasks run inline through
    :func:`run_rule_task`; tasks only *read* the store and count work in
    scratch ``EngineStats``, and the engine merges derived tuples,
    supports and counters serially in submission order.
    """

    def __init__(self, program: Program | CompiledProgram) -> None:
        if isinstance(program, CompiledProgram):
            self.compiled = program
        else:
            self.compiled = compile_program(program)
        self._active = self.compiled
        self._strata = self._build_stratum_info()
        self._planned_cardinalities: dict[str, float] | None = None
        self._base_facts: dict[str, set[Tuple_]] = {}
        #: Arity each base predicate was first used with — retained even
        #: when every fact is retracted, so a later re-assertion cannot
        #: smuggle in a different arity.
        self._base_arity: dict[str, int] = {}
        for fact in self.compiled.program.facts:
            row = tuple(t.value for t in fact.atom.terms)  # type: ignore[union-attr]
            self._base_facts.setdefault(fact.atom.predicate, set()).add(row)
            self._base_arity.setdefault(fact.atom.predicate, len(row))
        self._store: RelationStore | None = None
        #: Snapshot copies made by stores a full run discarded, so
        #: stats.tuples_copied stays cumulative.
        self._copied_base = 0
        self._supports = SupportIndex()
        self._agg_cache: dict[int, set[Tuple_]] = {}
        self._pending = DeltaLedger()
        self._gain_plans: dict[tuple[int, int], JoinPlan] = {}
        self._loss_plans: dict[tuple[int, int], JoinPlan] = {}
        self._rederive_plans: dict[int, JoinPlan] = {}
        self._agg_group_plans: dict[int, JoinPlan] = {}
        self.stats = EngineStats()
        self.runs = 0  # full evaluations performed (observability for benches)

    # -- fact management ---------------------------------------------------
    def add_facts(self, predicate: str, rows: Iterable[Tuple_]) -> int:
        """Queue base facts for ``predicate``; returns how many were new.

        Rule-head (IDB) predicates cannot receive base facts.
        """
        if predicate in self.compiled.program.idb_predicates():
            raise CyLogTypeError(
                f"cannot add base facts to derived predicate {predicate!r}"
            )
        target = self._base_facts.setdefault(predicate, set())
        added = 0
        for row in rows:
            row = tuple(row)
            arity = self._base_arity.setdefault(predicate, len(row))
            if len(row) != arity:
                raise CyLogTypeError(f"mixed arity facts supplied for {predicate!r}")
            if row not in target:
                target.add(row)
                self._pending.add(predicate, row)
                added += 1
        return added

    def retract_facts(self, predicate: str, rows: Iterable[Tuple_]) -> int:
        """Queue base-fact retractions; returns how many were present.

        Only extensional facts can be retracted — derived tuples disappear
        on their own when they lose every derivation.
        """
        if predicate in self.compiled.program.idb_predicates():
            raise CyLogTypeError(
                f"cannot retract facts of derived predicate {predicate!r}"
            )
        target = self._base_facts.get(predicate)
        removed = 0
        for row in rows:
            row = tuple(row)
            if target is not None and row in target:
                target.discard(row)
                self._pending.remove(predicate, row)
                removed += 1
        self.stats.retractions += removed
        return removed

    # -- evaluation --------------------------------------------------------
    def run(self, full: bool = False) -> EvaluationResult:
        """Evaluate to fixpoint, incrementally when possible.

        With no pending changes the previous fixpoint is returned as-is
        (with empty deltas); pending additions and retractions are
        propagated in place.  ``full=True`` forces a from-scratch
        recomputation — the escape hatch and the oracle baseline.
        """
        if full or self._store is None:
            result = self._full_run()
        elif not self._pending:
            result = EvaluationResult(self._store.snapshot())
        else:
            result = self._incremental_run()
        self.stats.tuples_copied = self._copied_base + self._store.tuples_copied()
        return result

    def facts(self, predicate: str) -> frozenset:
        """Current tuples of ``predicate`` (after the last :meth:`run`)."""
        if self._store is None or self._pending:
            self.run()
        relation = self._store.maybe(predicate)  # type: ignore[union-attr]
        return relation.snapshot() if relation is not None else frozenset()

    @property
    def store(self) -> RelationStore:
        if self._store is None or self._pending:
            self.run()
        return self._store  # type: ignore[return-value]

    # -- planning ----------------------------------------------------------
    def _replan(self) -> None:
        """Recompile join plans against the live base-fact cardinalities.

        Skipped when the cardinalities are unchanged since the last full
        run (recompilation and plan pretty-printing are then pure waste).
        """
        cardinalities = {
            predicate: float(len(rows))
            for predicate, rows in self._base_facts.items()
        }
        if cardinalities == self._planned_cardinalities:
            return
        self._planned_cardinalities = cardinalities
        self._active = compile_program(
            self.compiled.program, cardinalities=cardinalities
        )
        self._strata = self._build_stratum_info()
        self._gain_plans.clear()
        self._loss_plans.clear()
        self._rederive_plans.clear()
        self._agg_group_plans.clear()
        self._record_plans()

    def _record_plans(self) -> None:
        self.stats.plans = {
            f"{rule.rule.head.predicate}#{index}": explain_rule(rule)
            for index, rule in enumerate(self._active.rules)
        }

    def _build_stratum_info(self) -> tuple[_StratumInfo, ...]:
        infos: list[_StratumInfo] = []
        for stratum in range(self._active.strata_count):
            rules = [
                (index, rule)
                for index, rule in enumerate(self._active.rules)
                if rule.stratum == stratum
            ]
            plain = tuple((i, r) for i, r in rules if not r.rule.head.has_aggregates)
            aggregates = tuple((i, r) for i, r in rules if r.rule.head.has_aggregates)
            heads = frozenset(r.rule.head.predicate for _, r in rules)
            plain_heads = frozenset(r.rule.head.predicate for _, r in plain)
            edges: dict[str, set[str]] = {}
            referenced: set[str] = set()
            negations: list[tuple[int, CompiledRule, Negation]] = []
            for index, rule in plain:
                for atom in rule.rule.body_atoms():
                    referenced.add(atom.predicate)
                    if atom.predicate in plain_heads:
                        edges.setdefault(rule.rule.head.predicate, set()).add(
                            atom.predicate
                        )
                for literal in rule.rule.body:
                    if isinstance(literal, Negation):
                        negations.append((index, rule, literal))
            agg_inputs: dict[int, frozenset[str]] = {}
            for index, rule in aggregates:
                preds = {atom.predicate for atom in rule.rule.body_atoms()}
                for literal in rule.rule.body:
                    if isinstance(literal, Negation):
                        preds.add(literal.atom.predicate)
                agg_inputs[index] = frozenset(preds)
            infos.append(
                _StratumInfo(
                    plain=plain,
                    aggregates=aggregates,
                    heads=heads,
                    recursive=partition_recursive(plain_heads, edges),
                    referenced=frozenset(referenced),
                    negations=tuple(negations),
                    agg_inputs=agg_inputs,
                )
            )
        return tuple(infos)

    def _negation_trigger_plan(
        self, rule_index: int, rule: CompiledRule, negation: Negation, gain: bool
    ) -> JoinPlan:
        """Delta-first plan reacting to the negated predicate changing.

        *Gain* (the negated predicate acquired tuples): enumerate the
        bindings whose derivations just became invalid — the negated atom
        leads as a positive delta atom and every negation is dropped
        (supports are identified by their positive body rows, so a binding
        that never derived anything is a harmless no-op drop).

        *Loss* (the negated predicate lost tuples): enumerate genuinely new
        derivations — the vanished tuple leads as a positive delta atom
        while the rest of the body, *including* the triggering negation
        (anonymous variables may still be blocked by surviving rows), is
        evaluated against the current store.
        """
        cache = self._gain_plans if gain else self._loss_plans
        key = (rule_index, id(negation))
        plan = cache.get(key)  # type: ignore[arg-type]
        if plan is not None:
            return plan
        if gain:
            literals = [
                literal
                for literal in rule.rule.body
                if not isinstance(literal, Negation)
            ]
            plan, _ = build_join_plan(
                literals, first=negation.atom, best_effort=True
            )
        else:
            plan, _ = build_join_plan(list(rule.rule.body), first=negation.atom)
        cache[key] = plan  # type: ignore[index]
        return plan

    def _rederive_plan(self, rule_index: int, rule: CompiledRule) -> JoinPlan:
        """The rule body re-planned with the head variables pre-bound, so a
        derivability check probes indexes instead of re-scanning the leading
        relations the original plan assumed unbound."""
        plan = self._rederive_plans.get(rule_index)
        if plan is None:
            head_vars = {
                term.name
                for term in rule.rule.head.terms
                if isinstance(term, Var) and not term.is_anonymous
            }
            plan, _ = build_join_plan(rule.rule.body, initial_bound=head_vars)
            self._rederive_plans[rule_index] = plan
        return plan

    # -- aggregate maintenance ---------------------------------------------
    def _affected_agg_groups(
        self,
        rule_index: int,
        rule: CompiledRule,
        store: RelationStore,
        changes: DeltaLedger,
        stats: EngineStats,
    ) -> set[Tuple_] | None:
        """Group keys whose aggregate output may have moved, or ``None``
        when the change cannot be localised and the rule must recompute in
        full.

        A single-atom body binds its group keys directly from the changed
        rows.  A join body localises removals through the synthetic group
        supports recorded at evaluation time (which groups consumed the
        removed row) and additions through the rule's delta-first plans
        (every solution a new row participates in names its group).  A
        changed *negated* input stays a full recompute — provenance only
        covers positive rows.
        """
        body = rule.rule.body
        atoms = [literal for literal in body if isinstance(literal, Atom)]
        for literal in body:
            if isinstance(literal, Negation):
                pred = literal.atom.predicate
                if changes.added(pred) or changes.removed(pred):
                    return None
        group_vars = rule.rule.head.group_by_vars()
        if len(atoms) == 1:
            atom = atoms[0]
            atom_vars = {v.name for v in atom.variables()}
            if any(v.name not in atom_vars for v in group_vars):
                return None
            groups: set[Tuple_] = set()
            for row in (
                *changes.added(atom.predicate),
                *changes.removed(atom.predicate),
            ):
                bindings = _bind_atom(atom, row, {})
                if bindings is not None:
                    groups.add(tuple(bindings[v.name] for v in group_vars))
            return groups
        agg_pred = _agg_support_pred(rule.rule.head.predicate, rule_index)
        groups = set()
        for atom_pred in sorted({atom.predicate for atom in atoms}):
            for row in changes.removed(atom_pred):
                for ref, _pattern in self._supports.dependents(atom_pred, row):
                    if ref[0] == agg_pred:
                        groups.add(ref[1])
            added = changes.added(atom_pred)
            if not added:
                continue
            delta_rel = _relation_from(set(added), store.maybe(atom_pred))
            localized = False
            for position, step in enumerate(rule.join_plan.steps):
                literal = step.literal
                if not isinstance(literal, Atom) or literal.predicate != atom_pred:
                    continue
                localized = True
                for bindings in solutions(
                    rule.delta_plans[position],
                    store,
                    delta_relation=delta_rel,
                    stats=stats,
                ):
                    groups.add(tuple(bindings[v.name] for v in group_vars))
            if not localized:
                return None
        return groups

    def _evaluate_aggregate_tracked(
        self,
        rule_index: int,
        rule: CompiledRule,
        store: RelationStore,
        stats: EngineStats,
    ) -> set[Tuple_]:
        """Full aggregate evaluation that, for join bodies, also records
        one synthetic support per contributing solution — group key ->
        consumed body rows — so later removals localise their affected
        groups through the support index instead of recomputing every
        group (see :meth:`_affected_agg_groups`)."""
        if not _agg_body_is_join(rule):
            return _evaluate_aggregate_rule(rule, store, stats)
        head = rule.rule.head
        agg_pred = _agg_support_pred(head.predicate, rule_index)
        aggregates = head.aggregate_terms()
        group_vars = head.group_by_vars()
        groups: dict[Tuple_, dict[str, set]] = {}
        for bindings in solutions(rule.join_plan, store, stats=stats):
            key = tuple(bindings[v.name] for v in group_vars)
            per_agg = groups.setdefault(
                key, {a.var.name: set() for a in aggregates}
            )
            for aggregate in aggregates:
                per_agg[aggregate.var.name].add(bindings[aggregate.var.name])
            self._record(
                agg_pred, key, support_key_for(rule_index, rule, bindings), stats
            )
        return {
            _fold_aggregate_row(head, key, per_agg)
            for key, per_agg in groups.items()
        }

    def _clear_agg_supports(
        self, rule_index: int, rule: CompiledRule, cached: Iterable[Tuple_]
    ) -> None:
        """Forget a join-body aggregate rule's synthetic group supports.

        The cached output rows name exactly the groups that hold any
        (every group with at least one solution emits a row), so the purge
        is proportional to the rule's live groups, not the support index.
        """
        if not _agg_body_is_join(rule):
            return
        head = rule.rule.head
        agg_pred = _agg_support_pred(head.predicate, rule_index)
        for row in cached:
            self._supports.discard_tuple(agg_pred, _row_group_key(head, row))

    def _evaluate_agg_groups(
        self,
        rule_index: int,
        rule: CompiledRule,
        store: RelationStore,
        groups: set[Tuple_],
        stats: EngineStats,
    ) -> set[Tuple_]:
        """Aggregate output restricted to ``groups``, evaluated through a
        group-key-bound plan (indexed probes, not a full body scan).  For
        join bodies each group's synthetic supports are replaced by the
        surviving solutions' as a side effect."""
        head = rule.rule.head
        group_vars = head.group_by_vars()
        plan = self._agg_group_plans.get(rule_index)
        if plan is None:
            plan, _ = build_join_plan(
                rule.rule.body, initial_bound={v.name for v in group_vars}
            )
            self._agg_group_plans[rule_index] = plan
        agg_pred = (
            _agg_support_pred(head.predicate, rule_index)
            if _agg_body_is_join(rule)
            else None
        )
        aggregates = head.aggregate_terms()
        rows: set[Tuple_] = set()
        for group in sorted(groups, key=repr):
            if agg_pred is not None:
                self._supports.discard_tuple(agg_pred, group)
            initial = {v.name: value for v, value in zip(group_vars, group)}
            per_agg: dict[str, set] = {a.var.name: set() for a in aggregates}
            found = False
            for bindings in solutions(plan, store, initial=initial, stats=stats):
                found = True
                if agg_pred is not None:
                    self._record(
                        agg_pred,
                        group,
                        support_key_for(rule_index, rule, bindings),
                        stats,
                    )
                for aggregate in aggregates:
                    per_agg[aggregate.var.name].add(bindings[aggregate.var.name])
            if found:
                rows.add(_fold_aggregate_row(head, group, per_agg))
        return rows

    # -- derivation recording ----------------------------------------------
    def _record(
        self,
        predicate: str,
        row: Tuple_,
        key: SupportKey,
        stats: EngineStats | None = None,
    ) -> None:
        if self._supports.add(predicate, row, key):
            (stats if stats is not None else self.stats).supports_recorded += 1

    def _semi_naive_rounds(
        self,
        store: RelationStore,
        plain_rules: Sequence[tuple[int, CompiledRule]],
        delta: dict[str, set[Tuple_]],
        changes: DeltaLedger | None = None,
        stats: EngineStats | None = None,
    ) -> None:
        """Propagate ``delta`` to fixpoint, recording every derivation.

        Rules fire through their delta-first rewrites for any body atom
        whose predicate has a delta; new head tuples feed the next round
        (and ``changes``, when the caller is tracking a run report).

        Each round builds one task per (rule, delta atom).  Every task is
        evaluated against the pre-round store before any result merges;
        derived tuples then merge serially in task order.
        """
        if stats is None:
            stats = self.stats
        compiled = self._active
        while delta:
            stats.rounds += 1
            delta_relations = {
                predicate: _relation_from(rows, store.maybe(predicate))
                for predicate, rows in delta.items()
                if rows
            }
            jobs: list[_Task] = []
            for rule_index, rule in plain_rules:
                for position, step in enumerate(rule.join_plan.steps):
                    literal = step.literal
                    if not isinstance(literal, Atom):
                        continue
                    if literal.predicate not in delta_relations:
                        continue
                    stats.rules_fired += 1
                    jobs.append(
                        (rule_index, position, delta_relations[literal.predicate])
                    )
            results = [
                run_rule_task(compiled, store, rule_index, position, delta_rel)
                for rule_index, position, delta_rel in jobs
            ]
            next_delta: dict[str, set[Tuple_]] = {}
            for (rule_index, *_), (derived, scratch) in zip(jobs, results):
                stats.absorb(scratch)
                rule = compiled.rules[rule_index]
                head_pred = rule.rule.head.predicate
                relation = store.get(head_pred, rule.rule.head.arity)
                for row, support in derived:
                    self._record(head_pred, row, support, stats)
                    if relation.add(row):
                        stats.tuples_derived += 1
                        next_delta.setdefault(head_pred, set()).add(row)
                        if changes is not None:
                            changes.add(head_pred, row)
            delta = next_delta

    # -- full evaluation ---------------------------------------------------
    def _full_run(self) -> EvaluationResult:
        self.runs += 1
        self.stats.full_runs += 1
        self._pending = DeltaLedger()  # a from-scratch load covers everything
        self._replan()
        previous = self._store.snapshot() if self._store is not None else {}
        store = RelationStore(self._active.index_specs())
        if self._store is not None:
            self._copied_base += self._store.tuples_copied()
        self._supports = SupportIndex()
        self._agg_cache = {}
        for predicate, rows in self._base_facts.items():
            if not rows:
                continue
            relation = store.get(predicate, len(next(iter(rows))))
            for row in rows:
                relation.add(row)
        # Head relations exist (empty) from the start, so a run that
        # derives nothing still reports them.
        for rule in self._active.rules:
            store.get(rule.rule.head.predicate, rule.rule.head.arity)
        for info in self._strata:
            self._eval_stratum_full(store, info, self.stats)
        self._store = store
        current = store.snapshot()
        changes = DeltaLedger()
        for predicate in set(previous) | set(current):
            old = previous.get(predicate, _EMPTY_ROWS)
            new = current.get(predicate, _EMPTY_ROWS)
            for row in new - old:
                changes.add(predicate, row)
            for row in old - new:
                changes.remove(predicate, row)
        added, removed = changes.as_mappings()
        return EvaluationResult(current, added, removed)

    def _eval_stratum_full(
        self, store: RelationStore, info: _StratumInfo, stats: EngineStats
    ) -> None:
        for rule_index, rule in info.aggregates:
            head_pred = rule.rule.head.predicate
            relation = store.get(head_pred, rule.rule.head.arity)
            stats.rules_fired += 1
            stats.agg_recomputes += 1
            out = self._evaluate_aggregate_tracked(rule_index, rule, store, stats)
            self._agg_cache[rule_index] = out
            support: SupportKey = (rule_index, ())
            for row in out:
                self._record(head_pred, row, support, stats)
                if relation.add(row):
                    stats.tuples_derived += 1
        # Round 0: full evaluation of each rule.  Every rule's solutions
        # are materialised before any insertion, because recursive rules
        # scan the very relation they derive into; results merge in rule
        # order.
        compiled = self._active
        results = [
            run_rule_task(compiled, store, rule_index, None, None)
            for rule_index, _ in info.plain
        ]
        delta: dict[str, set[Tuple_]] = {}
        for (rule_index, rule), (derived, scratch) in zip(info.plain, results):
            stats.absorb(scratch)
            stats.rules_fired += 1
            head_pred = rule.rule.head.predicate
            relation = store.get(head_pred, rule.rule.head.arity)
            for row, support in derived:
                self._record(head_pred, row, support, stats)
                if relation.add(row):
                    stats.tuples_derived += 1
                    delta.setdefault(head_pred, set()).add(row)
        self._semi_naive_rounds(store, info.plain, delta, stats=stats)

    # -- incremental evaluation --------------------------------------------
    def _incremental_run(self) -> EvaluationResult:
        store = self._store
        assert store is not None
        self.stats.incremental_runs += 1
        pending, self._pending = self._pending, DeltaLedger()
        changes = DeltaLedger()
        for predicate in pending.predicates():
            relation = store.maybe(predicate)
            for row in pending.removed(predicate):
                if relation is not None and relation.discard(row):
                    self.stats.tuples_retracted += 1
                    changes.remove(predicate, row)
            added = pending.added(predicate)
            if added:
                # store.get re-validates arity, so a row that slipped past
                # the enqueue guard still raises instead of corrupting.
                relation = store.get(predicate, len(next(iter(added))))
                for row in added:
                    if relation.add(row):
                        changes.add(predicate, row)
        for info in self._strata:
            self._step_stratum(store, info, changes, self.stats)
        added_map, removed_map = changes.as_mappings()
        return EvaluationResult(store.snapshot(), added_map, removed_map)

    def _step_stratum(
        self,
        store: RelationStore,
        info: _StratumInfo,
        changes: DeltaLedger,
        stats: EngineStats,
    ) -> None:
        """Propagate the accumulated ``changes`` through one stratum.

        ``changes`` holds the base-fact deltas plus everything lower
        strata produced; this stratum's own additions and removals are
        written back into it for the strata above.
        """
        if not info.plain and not info.aggregates:
            return
        touched = set(changes.predicates())
        negated = {negation.atom.predicate for _, _, negation in info.negations}
        agg_touched = {
            index for index, preds in info.agg_inputs.items() if preds & touched
        }
        if not (touched & info.referenced or touched & negated or agg_touched):
            return
        scheduler = RetractionScheduler(
            store, self._supports, info.heads, info.recursive, stats
        )
        # Phase A: aggregates are recompute-and-diff — their inputs live in
        # strictly lower strata, so they are final by now.  When the change
        # is localisable the recompute is restricted to the affected groups.
        agg_additions: list[tuple[CompiledRule, Tuple_, SupportKey]] = []
        for rule_index, rule in info.aggregates:
            if rule_index not in agg_touched:
                continue
            head_pred = rule.rule.head.predicate
            stats.rules_fired += 1
            stats.agg_recomputes += 1
            cached = self._agg_cache.get(rule_index, set())
            groups = self._affected_agg_groups(rule_index, rule, store, changes, stats)
            if groups is None:
                old = cached
                self._clear_agg_supports(rule_index, rule, cached)
                new = self._evaluate_aggregate_tracked(rule_index, rule, store, stats)
                self._agg_cache[rule_index] = new
            elif groups:
                head = rule.rule.head
                old = {row for row in cached if _row_group_key(head, row) in groups}
                new = self._evaluate_agg_groups(rule_index, rule, store, groups, stats)
                self._agg_cache[rule_index] = (cached - old) | new
            else:
                continue
            support: SupportKey = (rule_index, ())
            for row in old - new:
                scheduler.drop_support(head_pred, row, support)
            for row in new - old:
                agg_additions.append((rule, row, support))
        # Phase B: deletions.  Removed input tuples cascade through the
        # support index; negation-gain triggers drop the exact derivations
        # the new tuples invalidate.
        for predicate in changes.predicates():
            for row in changes.removed(predicate):
                scheduler.enqueue_removed(predicate, row)
        for rule_index, rule, negation in info.negations:
            gained = changes.added(negation.atom.predicate)
            if not gained:
                continue
            head_pred = rule.rule.head.predicate
            plan = self._negation_trigger_plan(rule_index, rule, negation, gain=True)
            delta_rel = _relation_from(
                set(gained), store.maybe(negation.atom.predicate)
            )
            stats.rules_fired += 1
            # Materialized before dropping: drop_support deletes rows from
            # the store eagerly, and solutions() iterates its live index
            # buckets lazily.
            triggered = list(
                solutions(
                    plan,
                    store,
                    delta_relation=delta_rel,
                    stats=stats,
                )
            )
            for b in triggered:
                scheduler.drop_support(
                    head_pred,
                    _head_tuple(rule, b),
                    support_key_for(rule_index, rule, b),
                )
        scheduler.run()
        for predicate, row in scheduler.deleted:
            changes.remove(predicate, row)
        # Phase B': re-derivation.  Over-deleted tuples of the recursive
        # component are restored when still derivable from what survived;
        # the addition propagation below rebuilds everything downstream.
        # Restored tuples net out of the run report (their removal is
        # cancelled), so they seed the addition delta explicitly.
        rederived: dict[str, set[Tuple_]] = {}
        for predicate, row in sorted(scheduler.rederive, key=repr):
            relation = store.maybe(predicate)
            if relation is None or row in relation:
                continue
            supports: list[SupportKey] = []
            for rule_index, rule in info.plain:
                if rule.rule.head.predicate != predicate:
                    continue
                initial = _head_bindings(rule, row)
                if initial is None:
                    continue
                stats.rules_fired += 1
                plan = self._rederive_plan(rule_index, rule)
                for b in solutions(plan, store, initial=initial, stats=stats):
                    if _head_tuple(rule, b) == row:
                        supports.append(support_key_for(rule_index, rule, b))
            for rule_index, rule in info.aggregates:
                if rule.rule.head.predicate == predicate and row in self._agg_cache.get(
                    rule_index, ()
                ):
                    supports.append((rule_index, ()))
            if supports:
                for support in supports:
                    self._record(predicate, row, support, stats)
                store.get(predicate, len(row)).add(row)
                stats.tuples_rederived += 1
                changes.add(predicate, row)
                rederived.setdefault(predicate, set()).add(row)
        # Phase C: additions.  Seeds: net-added input tuples, aggregate
        # additions, re-derived tuples and negation-loss derivations.
        delta: dict[str, set[Tuple_]] = {}
        for predicate in changes.predicates():
            if predicate not in info.referenced:
                continue
            rows = changes.added(predicate)
            if rows:
                delta[predicate] = set(rows)
        for predicate, rows in rederived.items():
            if predicate in info.referenced:
                delta.setdefault(predicate, set()).update(rows)
        for rule, row, support in agg_additions:
            head_pred = rule.rule.head.predicate
            self._record(head_pred, row, support, stats)
            relation = store.get(head_pred, rule.rule.head.arity)
            if relation.add(row):
                stats.tuples_derived += 1
                changes.add(head_pred, row)
                if head_pred in info.referenced:
                    delta.setdefault(head_pred, set()).add(row)
        for rule_index, rule, negation in info.negations:
            lost = changes.removed(negation.atom.predicate)
            if not lost:
                continue
            head_pred = rule.rule.head.predicate
            relation = store.get(head_pred, rule.rule.head.arity)
            plan = self._negation_trigger_plan(rule_index, rule, negation, gain=False)
            delta_rel = _relation_from(set(lost), store.maybe(negation.atom.predicate))
            stats.rules_fired += 1
            derived = [
                (_head_tuple(rule, b), support_key_for(rule_index, rule, b))
                for b in solutions(
                    plan,
                    store,
                    delta_relation=delta_rel,
                    stats=stats,
                )
            ]
            for row, support in derived:
                self._record(head_pred, row, support, stats)
                if relation.add(row):
                    stats.tuples_derived += 1
                    changes.add(head_pred, row)
                    if head_pred in info.referenced:
                        delta.setdefault(head_pred, set()).add(row)
        self._semi_naive_rounds(store, info.plain, delta, changes, stats=stats)


def _relation_from(rows: set[Tuple_], template: Relation | None) -> Relation:
    arity = template.arity if template is not None else len(next(iter(rows)))
    relation = Relation(arity)
    for row in rows:
        relation.add(row)
    return relation
