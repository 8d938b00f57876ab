"""The CyLog processor: program lifecycle + dynamic task generation.

This is the component labelled "CyLog Processor" in Figure 2 of the paper:
it stores the declarative project description, evaluates it against the
current fact base, emits task requests for unanswered open-predicate keys,
and folds worker answers back in — re-deriving and re-demanding until the
project reaches quiescence.

>>> from repro.cylog import CyLogProcessor
>>> source = '''
... open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
... segment("s1"). segment("s2").
... translated(S, T) :- segment(S), translate(S, T).
... '''
>>> processor = CyLogProcessor(source)
>>> sorted(r.key_values for r in processor.pending_requests())
[('s1',), ('s2',)]
>>> request = processor.request_for("translate", ("s1",))
>>> _ = processor.supply_answer(request, {"out": "S1-FR"})
>>> processor.facts("translated")
frozenset({('s1', 'S1-FR')})
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.cylog.ast import Program
from repro.cylog.engine import EngineStats, EvaluationResult, SemiNaiveEngine
from repro.cylog.errors import CyLogTypeError
from repro.cylog.incremental import DeltaLedger
from repro.cylog.open_predicates import (
    TaskRequest,
    build_open_fact,
    compute_demands,
)
from repro.cylog.parser import parse_program
from repro.cylog.safety import compile_program

Tuple_ = tuple[Any, ...]

#: Called with the batch of newly demanded task requests after each re-run.
DemandListener = Callable[[list[TaskRequest]], None]

#: Called with the batch of *withdrawn* task requests after each re-run —
#: previously emitted demands that the current fixpoint no longer derives
#: (an upstream retraction removed their seed) and that were never
#: answered.  A consumer that materialised work for the request (e.g. a
#: platform task) should cancel it.
RevocationListener = Callable[[list[TaskRequest]], None]


class CyLogProcessor:
    """Interprets one CyLog project description (paper §2.1)."""

    def __init__(self, source: str | Program) -> None:
        program = parse_program(source) if isinstance(source, str) else source
        self.compiled = compile_program(program)
        self.engine = SemiNaiveEngine(self.compiled)
        self._answered: set[tuple[str, Tuple_]] = set()
        self._seen_requests: dict[tuple[str, Tuple_], TaskRequest] = {}
        #: Identities demanded by the *current* fixpoint — with retraction
        #: in play a previously seen demand can silently stop being one.
        self._current_demands: set[tuple[str, Tuple_]] = set()
        self._listeners: list[DemandListener] = []
        self._revocation_listeners: list[RevocationListener] = []
        self._dirty = True
        self._batch_depth = 0
        #: Net change sets accumulated across runs until a consumer (the
        #: platform round) drains them — first-class deltas, not a cache.
        self._deltas = DeltaLedger()

    @property
    def program(self) -> Program:
        return self.compiled.program

    # -- observers -----------------------------------------------------------
    def add_demand_listener(self, listener: DemandListener) -> None:
        """Register a callback receiving each batch of *new* task requests."""
        self._listeners.append(listener)

    def add_revocation_listener(self, listener: RevocationListener) -> None:
        """Register a callback receiving each batch of *withdrawn* task
        requests — emitted demands the fixpoint stopped deriving before
        they were answered (retraction-aware demand maintenance)."""
        self._revocation_listeners.append(listener)

    # -- fact input ------------------------------------------------------------
    @contextlib.contextmanager
    def batch(self) -> Iterator["CyLogProcessor"]:
        """Group a burst of fact arrivals into one incremental continuation.

        Inside the ``with`` block, :meth:`run` only evaluates the engine and
        defers demand refresh (and listener notification); on clean exit of
        the outermost batch a single re-evaluation folds the whole burst in.
        If the block raises, no evaluation or listener notification happens
        during unwinding — the facts queued so far are folded in by the next
        explicit :meth:`run`.
        """
        self._batch_depth += 1
        try:
            yield self
        except BaseException:
            self._batch_depth -= 1
            raise
        else:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self.run()

    def add_facts(self, predicate: str, rows: Iterable[Tuple_]) -> int:
        """Add extensional facts (e.g. worker profiles injected by the
        platform); marks the processor dirty for re-evaluation."""
        added = self.engine.add_facts(predicate, rows)
        if added:
            self._dirty = True
        return added

    def supply_answer(
        self, request: TaskRequest, fill_values: Mapping[str, Any]
    ) -> Tuple_:
        """Record a worker answer for ``request`` and re-evaluate.

        Returns the stored fact tuple.  Multiple answers for the same key
        are allowed (different workers may contribute different tuples);
        the *demand* disappears after the first answer.
        """
        fact = request.build_fact(fill_values)
        self.engine.add_facts(request.predicate, [fact])
        self._answered.add((request.predicate, request.key_values))
        self._dirty = True
        return fact

    def supply_answers(
        self, answers: Iterable[tuple[TaskRequest, Mapping[str, Any]]]
    ) -> list[Tuple_]:
        """Record a whole burst of worker answers at once.

        Facts are grouped per predicate and queued in one engine call each,
        so the next :meth:`run` propagates the burst with a single
        incremental continuation instead of one per answer.
        """
        facts: list[Tuple_] = []
        by_predicate: dict[str, list[Tuple_]] = {}
        for request, fill_values in answers:
            fact = request.build_fact(fill_values)
            by_predicate.setdefault(request.predicate, []).append(fact)
            self._answered.add((request.predicate, request.key_values))
            facts.append(fact)
        for predicate, rows in by_predicate.items():
            self.engine.add_facts(predicate, rows)
        if facts:
            self._dirty = True
        return facts

    def supply_fact(
        self,
        predicate: str,
        key_values: Mapping[str, Any],
        fill_values: Mapping[str, Any],
    ) -> Tuple_:
        """Like :meth:`supply_answer` without a request object in hand."""
        decl = self.compiled.open_decls.get(predicate)
        if decl is None:
            raise CyLogTypeError(f"{predicate!r} is not an open predicate")
        fact = build_open_fact(decl, dict(key_values), fill_values)
        self.engine.add_facts(predicate, [fact])
        key = tuple(key_values[k] for k in decl.key)
        self._answered.add((predicate, key))
        self._dirty = True
        return fact

    def retract_facts(self, predicate: str, rows: Iterable[Tuple_]) -> int:
        """Retract extensional facts; refreshes demands eagerly.

        Retraction can *resurrect* demand (a key is unanswered again) and
        invalidate derived state downstream, so unlike the additive paths
        the processor re-evaluates immediately instead of waiting for the
        next :meth:`run` — pending task requests are correct the moment
        this returns (deferred inside a :meth:`batch` block as usual).
        """
        removed = self.engine.retract_facts(predicate, [tuple(r) for r in rows])
        if removed:
            self._dirty = True
            if not self._batch_depth:
                self.run()
        return removed

    def revoke_answer(
        self, predicate: str, key_values: Tuple_ | Mapping[str, Any]
    ) -> int:
        """Withdraw every stored answer of an open predicate for one key.

        The key is forgotten from the answered set and its task request is
        dropped from the seen set, so if the (re-evaluated) program still
        demands it a *fresh* request is emitted to demand listeners — the
        revoked task reappears.  Returns the number of facts retracted.
        """
        decl = self.compiled.open_decls.get(predicate)
        if decl is None:
            raise CyLogTypeError(f"{predicate!r} is not an open predicate")
        if isinstance(key_values, Mapping):
            key = tuple(key_values[k] for k in decl.key)
        else:
            key = tuple(key_values)
        # Evaluate through self.run() (not the raw engine accessors) so any
        # queued additions report their deltas into the processor's ledger.
        self.run()
        relation = self.engine.store.maybe(predicate)
        rows = (
            [tuple(row) for row in relation.lookup(tuple(decl.key_positions), key)]
            if relation is not None
            else []
        )
        self._answered.discard((predicate, key))
        self._seen_requests.pop((predicate, key), None)
        self._dirty = True
        removed = self.engine.retract_facts(predicate, rows) if rows else 0
        if not self._batch_depth:
            self.run()
        return removed

    # -- evaluation & demand ------------------------------------------------------
    def run(self) -> EvaluationResult:
        """Re-evaluate if dirty; returns the current result snapshot.

        Every run's reported change sets are folded into the processor's
        delta ledger (see :meth:`drain_deltas`).  Inside a :meth:`batch`
        block the demand refresh is deferred to the end of the batch, so a
        burst of answers triggers one refresh."""
        result = self.engine.run()
        if result.has_changes():
            for predicate in result.changed_predicates():
                for row in result.added(predicate):
                    self._deltas.add(predicate, row)
                for row in result.removed(predicate):
                    self._deltas.remove(predicate, row)
        if self._dirty and not self._batch_depth:
            self._dirty = False
            new_requests, revoked = self._refresh_demands()
            # Withdrawals first: a consumer reacting to the fresh batch
            # must never observe a stale materialisation of a demand the
            # same fixpoint just withdrew.
            if revoked:
                for listener in self._revocation_listeners:
                    listener(revoked)
            if new_requests:
                for listener in self._listeners:
                    listener(new_requests)
        return result

    def drain_deltas(self) -> dict[str, tuple[frozenset, frozenset]]:
        """Consume the net (added, removed) sets accumulated since the last
        drain — the platform round's change feed.  Runs first if dirty so
        the drained view is current."""
        if self._dirty:
            self.run()
        added, removed = self._deltas.as_mappings()
        self._deltas = DeltaLedger()
        return {
            predicate: (
                added.get(predicate, frozenset()),
                removed.get(predicate, frozenset()),
            )
            for predicate in sorted(set(added) | set(removed))
        }

    def _refresh_demands(self) -> tuple[list[TaskRequest], list[TaskRequest]]:
        demands = compute_demands(self.compiled, self.engine.store)
        previous = self._current_demands
        self._current_demands = {(r.predicate, r.key_values) for r in demands}
        # Unanswered demands that vanished were withdrawn by retraction
        # (an answered demand disappearing is just the normal lifecycle).
        # Dropping them from the seen set means a later resurrection is
        # emitted as a fresh request again — same as a retracted answer.
        revoked: list[TaskRequest] = []
        for identity in sorted(
            previous - self._current_demands, key=lambda i: (i[0], repr(i[1]))
        ):
            if identity in self._answered:
                continue
            request = self._seen_requests.pop(identity, None)
            if request is not None:
                revoked.append(request)
        fresh: list[TaskRequest] = []
        for request in sorted(demands, key=lambda r: (r.predicate, repr(r.key_values))):
            identity = (request.predicate, request.key_values)
            if identity not in self._seen_requests:
                self._seen_requests[identity] = request
                fresh.append(request)
        return fresh, revoked

    def pending_requests(self) -> list[TaskRequest]:
        """Task requests demanded now and not yet answered (sorted).

        A request stays pending only while the current fixpoint still
        demands it — a retraction upstream withdraws the demands it seeded.
        """
        self.run()
        pending = [
            request
            for identity, request in self._seen_requests.items()
            if identity not in self._answered and identity in self._current_demands
        ]
        pending.sort(key=lambda r: (r.predicate, repr(r.key_values)))
        return pending

    def request_for(self, predicate: str, key_values: Tuple_) -> TaskRequest:
        """Look up a pending request by predicate and key tuple."""
        self.run()
        request = self._seen_requests.get((predicate, tuple(key_values)))
        if request is None:
            raise CyLogTypeError(
                f"no task request for {predicate!r} with key {tuple(key_values)!r}"
            )
        return request

    def is_quiescent(self) -> bool:
        """True when no human input is currently demanded."""
        return not self.pending_requests()

    # -- inspection ---------------------------------------------------------------
    def facts(self, predicate: str) -> frozenset:
        """Current facts of ``predicate`` after (re-)evaluation."""
        self.run()
        return self.engine.facts(predicate)

    def sorted_facts(self, predicate: str) -> list[Tuple_]:
        return sorted(self.facts(predicate), key=repr)

    def relation_sizes(self) -> dict[str, int]:
        self.run()
        store = self.engine.store
        return {name: len(store.maybe(name) or ()) for name in store.predicates()}

    @property
    def stats(self) -> EngineStats:
        """Cumulative engine work counters (see :class:`EngineStats`)."""
        return self.engine.stats

    def explain(self) -> str:
        """Human-readable join plans of the compiled program."""
        from repro.cylog.pretty import explain_program

        return explain_program(self.compiled)
