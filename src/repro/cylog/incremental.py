"""Cross-run incremental maintenance: deltas, support counts, retraction.

Three cooperating pieces let :class:`~repro.cylog.engine.SemiNaiveEngine`
keep its materialisations *between* ``run()`` calls and propagate only what
changed:

* :class:`DeltaLedger` — net per-predicate change sets.  Used for the
  pending base-fact queue (additions *and* retractions), for the per-run
  change report surfaced through ``EvaluationResult.added/removed``, and by
  the processor to accumulate deltas across runs until the platform drains
  them.
* :class:`SupportIndex` — provenance-based support counting.  Every
  derivation found during evaluation is recorded as a *support*: the rule
  that fired plus the positive body rows it consumed (``None`` marks
  positions hidden behind anonymous variables).  A reverse index from each
  body row to the supports it participates in makes deletion a lookup, not
  a recomputation: retracting a tuple drops exactly the derivations that
  used it, and a derived tuple dies only when its support count reaches
  zero.
* :class:`RetractionScheduler` — the per-stratum deletion cascade.  For
  strata whose dependency graph is acyclic, pure support counting is exact.
  Inside recursive strata counting alone is unsound (cyclic derivations can
  keep each other alive), so the scheduler falls back to the classic
  DRed treatment: tuples of recursive predicates whose only remaining
  supports run through the recursive component are *over-deleted* and
  queued for the engine's re-derivation phase, which restores everything
  still derivable from the surviving facts.

The support index is only ever touched by the engine's serial merge —
evaluation tasks return derivations, never record them — so it needs no
locking.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.cylog.engine import EngineStats, RelationStore

Tuple_ = tuple[Any, ...]
#: One positive-body dependency: predicate plus the consumed row, with
#: ``None`` at positions the rule matched through an anonymous variable.
Dep = tuple[str, Tuple_]
#: Identity of one derivation: the compiled-rule index plus its positive
#: body rows.  Aggregate rules use an empty dependency tuple — their
#: supports are reconciled by recompute-and-diff, not by row tracking.
SupportKey = tuple[int, tuple[Dep, ...]]
#: A support occurrence as stored in the reverse index.
SupportRef = tuple[str, Tuple_, SupportKey]


class DeltaLedger:
    """Net per-predicate added/removed tuple sets.

    ``add`` and ``remove`` cancel each other, so after any sequence of
    operations the ledger holds the *net* difference against the state it
    started from — exactly what an incremental consumer needs.
    """

    __slots__ = ("_added", "_removed")

    def __init__(self) -> None:
        self._added: dict[str, set[Tuple_]] = {}
        self._removed: dict[str, set[Tuple_]] = {}

    def add(self, predicate: str, row: Tuple_) -> None:
        removed = self._removed.get(predicate)
        if removed is not None and row in removed:
            removed.discard(row)
            if not removed:
                del self._removed[predicate]
            return
        self._added.setdefault(predicate, set()).add(row)

    def remove(self, predicate: str, row: Tuple_) -> None:
        added = self._added.get(predicate)
        if added is not None and row in added:
            added.discard(row)
            if not added:
                del self._added[predicate]
            return
        self._removed.setdefault(predicate, set()).add(row)

    def added(self, predicate: str) -> set[Tuple_]:
        return self._added.get(predicate, set())

    def removed(self, predicate: str) -> set[Tuple_]:
        return self._removed.get(predicate, set())

    def merge(self, other: "DeltaLedger") -> None:
        """Fold ``other`` (a later change set) into this ledger."""
        for predicate, rows in other._added.items():
            for row in rows:
                self.add(predicate, row)
        for predicate, rows in other._removed.items():
            for row in rows:
                self.remove(predicate, row)

    def predicates(self) -> list[str]:
        return sorted(set(self._added) | set(self._removed))

    def clear(self) -> None:
        self._added.clear()
        self._removed.clear()

    def as_mappings(self) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
        """Immutable (added, removed) views for an ``EvaluationResult``."""
        return (
            {pred: frozenset(rows) for pred, rows in self._added.items() if rows},
            {pred: frozenset(rows) for pred, rows in self._removed.items() if rows},
        )

    def __bool__(self) -> bool:
        return bool(self._added) or bool(self._removed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        added = sum(len(r) for r in self._added.values())
        removed = sum(len(r) for r in self._removed.values())
        return f"<delta ledger +{added}/-{removed}>"


def _strict_eq(a: Any, b: Any) -> bool:
    """Equality that keeps ``True`` and ``1`` apart, like the join layer's
    ``_bind_atom`` (hash indexes conflate them, so set/index hits must be
    re-filtered)."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _matches(pattern: Tuple_, row: Tuple_) -> bool:
    return all(p is None or _strict_eq(p, value) for p, value in zip(pattern, row))


#: A wildcard pattern's shape: its arity and its concrete positions.
Shape = tuple[int, tuple[int, ...]]
#: Projected values plus their bool mask: equal exactly when every value
#: is equal under :func:`_strict_eq`.
StrictKey = tuple[Tuple_, tuple[bool, ...]]


def _strict_key(values: Tuple_) -> StrictKey:
    """A dict key that keeps ``True`` and ``1`` apart (plain tuple keys
    conflate them), while ``1`` and ``1.0`` stay equal."""
    return values, tuple(isinstance(value, bool) for value in values)


def _wild_slot(pattern: Tuple_) -> tuple[Shape, StrictKey]:
    """Where a wildcard pattern lives in the reverse index: a row matches
    the pattern exactly when its values at the pattern's concrete
    positions have the pattern's strict key."""
    positions = tuple(i for i, value in enumerate(pattern) if value is not None)
    return (len(pattern), positions), _strict_key(
        tuple(pattern[i] for i in positions)
    )


class SupportIndex:
    """Derivation provenance: tuple -> supports, body row -> dependents.

    ``add`` records one derivation of a head tuple; ``dependents`` answers
    "which derivations consumed this row?" so a deletion can cascade in time
    proportional to the affected provenance, not the database.  Anonymous
    variables leave ``None`` holes in the recorded body row; those supports
    are hashed on the pattern's concrete positions, so a deletion probes
    once per distinct pattern shape (the engine re-checks whether
    *another* row still satisfies the hole before the support is
    dropped).
    """

    def __init__(self) -> None:
        #: (pred, row) -> its support keys.
        self._supports: dict[tuple[str, Tuple_], set[SupportKey]] = {}
        #: pred -> exact body row -> supports consuming it.
        self._exact: dict[str, dict[Tuple_, set[SupportRef]]] = {}
        #: pred -> pattern shape -> strict key of the pattern's concrete
        #: values -> supports consuming a matching row.
        self._wild: dict[str, dict[Shape, dict[StrictKey, set[SupportRef]]]] = {}

    def add(self, predicate: str, row: Tuple_, key: SupportKey) -> bool:
        """Record one derivation; returns True when it was not yet known."""
        entry = self._supports.setdefault((predicate, row), set())
        if key in entry:
            return False
        entry.add(key)
        ref: SupportRef = (predicate, row, key)
        for dep_pred, dep_row in key[1]:
            if None in dep_row:
                self._wild_add(dep_pred, dep_row, ref)
            else:
                self._exact.setdefault(dep_pred, {}).setdefault(
                    dep_row, set()
                ).add(ref)
        return True

    def count(self, predicate: str, row: Tuple_) -> int:
        return len(self._supports.get((predicate, row), ()))

    def supports(self, predicate: str, row: Tuple_) -> frozenset:
        return frozenset(self._supports.get((predicate, row), ()))

    def drop(self, predicate: str, row: Tuple_, key: SupportKey) -> int:
        """Remove one support if present; returns the remaining count."""
        entry = self._supports.get((predicate, row))
        if entry is None or key not in entry:
            return len(entry) if entry is not None else 0
        entry.discard(key)
        self._unregister((predicate, row, key))
        if not entry:
            del self._supports[(predicate, row)]
            return 0
        return len(entry)

    def discard_tuple(self, predicate: str, row: Tuple_) -> None:
        """The tuple left the store: forget every derivation *of* it.

        Supports it participates in (as a body row of other derivations)
        are untouched — the deletion cascade drops those explicitly.
        """
        entry = self._supports.pop((predicate, row), None)
        if not entry:
            return
        for key in entry:
            self._unregister((predicate, row, key))

    def _unregister(self, ref: SupportRef) -> None:
        for dep_pred, dep_row in ref[2][1]:
            if None in dep_row:
                self._wild_discard(dep_pred, dep_row, ref)
                continue
            per_pred = self._exact.get(dep_pred)
            if per_pred is None:
                continue
            refs = per_pred.get(dep_row)
            if refs is None:
                continue
            refs.discard(ref)
            if not refs:
                del per_pred[dep_row]
                if not per_pred:
                    del self._exact[dep_pred]

    # -- wildcard reverse index -------------------------------------------
    def _wild_add(self, dep_pred: str, pattern: Tuple_, ref: SupportRef) -> None:
        shape, key = _wild_slot(pattern)
        self._wild.setdefault(dep_pred, {}).setdefault(shape, {}).setdefault(
            key, set()
        ).add(ref)

    def _wild_discard(
        self, dep_pred: str, pattern: Tuple_, ref: SupportRef
    ) -> None:
        per_pred = self._wild.get(dep_pred)
        if per_pred is None:
            return
        shape, key = _wild_slot(pattern)
        per_shape = per_pred.get(shape)
        if per_shape is None:
            return
        refs = per_shape.get(key)
        if refs is None:
            return
        refs.discard(ref)
        if not refs:
            del per_shape[key]
            if not per_shape:
                del per_pred[shape]
                if not per_pred:
                    del self._wild[dep_pred]

    def _wild_matches(
        self, predicate: str, row: Tuple_
    ) -> list[tuple[SupportRef, Tuple_]]:
        """One dict probe per pattern shape of ``predicate``; the strict
        key keeps a ``(True, _)`` pattern from matching the row
        ``(1, 5)``."""
        per_pred = self._wild.get(predicate)
        if not per_pred:
            return []
        out: list[tuple[SupportRef, Tuple_]] = []
        arity = len(row)
        for (width, positions), per_shape in per_pred.items():
            if width != arity:
                continue
            refs = per_shape.get(_strict_key(tuple(row[p] for p in positions)))
            if refs:
                # The row's own values are strictly equal to the pattern's.
                pattern = tuple(
                    value if p in positions else None for p, value in enumerate(row)
                )
                out.extend((ref, pattern) for ref in refs)
        return out

    def dependents(
        self, predicate: str, row: Tuple_
    ) -> list[tuple[SupportRef, Tuple_ | None]]:
        """Supports consuming ``row``: ``(ref, pattern)`` pairs.

        ``pattern`` is ``None`` for exact dependencies and the wildcard
        pattern (with ``None`` holes) for anonymous-variable dependencies —
        the caller decides whether another row still satisfies it.  The
        result is materialised, so the caller may mutate the index while
        consuming it.
        """
        exact = self._exact.get(predicate)
        out: list[tuple[SupportRef, Tuple_ | None]] = []
        if exact is not None:
            out.extend((ref, None) for ref in exact.get(row, ()))
        out.extend(self._wild_matches(predicate, row))
        return out


class RetractionScheduler:
    """Worklist deletion cascade for one stratum (counting + DRed).

    Seeded with already-removed input tuples and with precise support drops
    (negation-gain triggers, aggregate diffs), :meth:`run` cascades until no
    further tuple of this stratum loses its footing.  Tuples of predicates
    inside a recursive component are *over-deleted* as soon as they lose a
    support without retaining one grounded outside the component; they are
    collected in :attr:`rederive` for the engine's restore phase.
    """

    def __init__(
        self,
        store: "RelationStore",
        supports: SupportIndex,
        stratum_heads: frozenset[str],
        recursive_preds: frozenset[str],
        stats: "EngineStats",
    ) -> None:
        self._store = store
        self._supports = supports
        self._heads = stratum_heads
        self._recursive = recursive_preds
        self._stats = stats
        self._queue: deque[tuple[str, Tuple_]] = deque()
        #: (pred, row) tuples of *this stratum* deleted by the cascade.
        self.deleted: list[tuple[str, Tuple_]] = []
        #: Over-deleted tuples that must be offered re-derivation.
        self.rederive: set[tuple[str, Tuple_]] = set()

    def enqueue_removed(self, predicate: str, row: Tuple_) -> None:
        """An input tuple (lower stratum / base) is gone: cascade from it."""
        self._queue.append((predicate, row))

    def drop_support(self, predicate: str, row: Tuple_, key: SupportKey) -> None:
        """Precisely invalidate one derivation (negation gain, agg diff)."""
        if predicate not in self._heads:
            return
        relation = self._store.maybe(predicate)
        if relation is None or row not in relation:
            return
        remaining = self._supports.drop(predicate, row, key)
        self._reconsider(predicate, row, remaining)

    def run(self) -> None:
        while self._queue:
            predicate, row = self._queue.popleft()
            for ref, pattern in self._supports.dependents(predicate, row):
                head_pred, head_row, key = ref
                if head_pred not in self._heads:
                    continue  # a later stratum owns this support
                relation = self._store.maybe(head_pred)
                if relation is None or head_row not in relation:
                    continue  # already deleted this cascade
                if pattern is not None:
                    # Anonymous-variable dependency: the support survives as
                    # long as *some* row still matches the pattern.  The
                    # index probe conflates bool/int keys, so re-filter
                    # candidates strictly.
                    source = self._store.maybe(predicate)
                    if source is not None and any(
                        _matches(pattern, candidate)
                        for candidate in source.match(pattern)
                    ):
                        continue
                remaining = self._supports.drop(head_pred, head_row, key)
                self._reconsider(head_pred, head_row, remaining)

    def _reconsider(self, predicate: str, row: Tuple_, remaining: int) -> None:
        if remaining > 0:
            if predicate not in self._recursive:
                return
            if self._grounded(predicate, row):
                return
            # Every remaining support runs through the recursive component:
            # it may be cyclic garbage.  Over-delete; re-derivation restores
            # the tuple when it is still genuinely derivable.
            self.rederive.add((predicate, row))
            self._stats.overdeletions += 1
        elif predicate in self._recursive:
            self.rederive.add((predicate, row))
        self._delete(predicate, row)

    def _grounded(self, predicate: str, row: Tuple_) -> bool:
        """True when some support's body rows all avoid the recursive
        component (they are final by the time this stratum runs)."""
        for key in self._supports.supports(predicate, row):
            if all(dep_pred not in self._recursive for dep_pred, _ in key[1]):
                return True
        return False

    def _delete(self, predicate: str, row: Tuple_) -> None:
        relation = self._store.maybe(predicate)
        if relation is None or not relation.discard(row):
            return
        self._supports.discard_tuple(predicate, row)
        self.deleted.append((predicate, row))
        self._stats.tuples_retracted += 1
        self._queue.append((predicate, row))


def partition_recursive(
    head_preds: Iterable[str], edges: Mapping[str, set[str]]
) -> frozenset[str]:
    """Head predicates on a positive within-stratum cycle (incl. self-loops).

    ``edges`` maps a head predicate to the same-stratum head predicates its
    rule bodies consume positively.  Counting-based deletion is exact for
    everything outside the returned set; tuples inside it need DRed.
    """
    heads = set(head_preds)
    recursive: set[str] = set()
    for start in heads:
        # DFS from each successor of `start`; reaching `start` again closes
        # a cycle.  Stratum head counts are tiny, so O(n^2) is fine.
        stack = list(edges.get(start, ()))
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node == start:
                recursive.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
    return frozenset(recursive)
