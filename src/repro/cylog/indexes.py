"""Incrementally maintained multi-key hash indexes.

The CyLog engine keeps a :class:`TupleIndexSet` per relation, holding one
hash index for every key (tuple of term positions) the join planner chose
at compile time — indexes are updated on every insertion instead of being
rebuilt from scratch each semi-naive round.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

Key = tuple
Positions = tuple[int, ...]

_EMPTY: frozenset = frozenset()


class MultiKeyHashIndex:
    """Hash map from key tuples to buckets (sets) of values.

    Buckets are maintained eagerly: :meth:`add` and :meth:`discard` keep the
    mapping exact, so lookups never revalidate.  :meth:`bucket` returns the
    live internal set for speed — callers must not mutate it.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[Key, set] = {}

    def add(self, key: Key, value: Any) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {value}
        else:
            bucket.add(value)

    def discard(self, key: Key, value: Any) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(value)
        if not bucket:
            del self._buckets[key]

    def bucket(self, key: Key) -> frozenset | set:
        """The live bucket for ``key`` (empty when absent); do not mutate."""
        return self._buckets.get(key, _EMPTY)

    @property
    def key_count(self) -> int:
        return len(self._buckets)

    def keys(self) -> Iterator[Key]:
        return iter(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<multi-key hash index ({len(self._buckets)} keys)>"


class TupleIndexSet:
    """A family of position-keyed hash indexes over same-arity tuples.

    ``ensure((1,), rows)`` builds (once) an index keyed on position 1;
    :meth:`insert` then maintains every registered index incrementally.
    The engine registers the positions its join plans need up front, so the
    per-round "build index by scanning all tuples" cost of the seed
    implementation disappears.
    """

    __slots__ = ("_indexes",)

    def __init__(self) -> None:
        self._indexes: dict[Positions, MultiKeyHashIndex] = {}

    def ensure(self, positions: Positions, rows: Iterable[tuple]) -> None:
        """Register an index on ``positions``, backfilling from ``rows``."""
        if positions in self._indexes:
            return
        index = MultiKeyHashIndex()
        for row in rows:
            index.add(tuple(row[p] for p in positions), row)
        self._indexes[positions] = index

    def has(self, positions: Positions) -> bool:
        return positions in self._indexes

    def insert(self, row: tuple) -> None:
        """Add ``row`` to every registered index."""
        for positions, index in self._indexes.items():
            index.add(tuple(row[p] for p in positions), row)

    def remove(self, row: tuple) -> None:
        """Drop ``row`` from every registered index (no-op when absent)."""
        for positions, index in self._indexes.items():
            index.discard(tuple(row[p] for p in positions), row)

    def rows(self, positions: Positions, key: Key) -> frozenset | set:
        """Rows whose ``positions`` project onto ``key`` (live set; do not
        mutate).  The index must have been registered via :meth:`ensure`."""
        return self._indexes[positions].bucket(key)

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    def specs(self) -> tuple[Positions, ...]:
        return tuple(self._indexes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<tuple index set on {sorted(self._indexes)}>"

