"""Secondary indexes: hash indexes for equality lookups.

Indexes map tuples of column values to the primary keys of matching rows.
They are maintained eagerly by :class:`repro.storage.table.Table` on every
mutation, so lookups never need revalidation.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.storage.errors import DuplicateKeyError

PkTuple = tuple[Any, ...]
ValueTuple = tuple[Any, ...]

#: The bucket of a key no row holds.
_EMPTY: dict[PkTuple, None] = {}


class HashIndex:
    """Equality index over one or more columns.

    Each bucket is an insertion-ordered dict of primary keys (the values are
    unused).  :class:`~repro.storage.table.Table` appends a row's pk to its
    buckets exactly when it appends the row to its own row dict — an update
    removes and re-adds both — so a bucket lists its pks in table scan
    order, which lets :meth:`repro.storage.query.Query.where` read a bucket
    in place of a scan without reordering.

    With ``unique=True`` a second row with the same value tuple raises
    :class:`DuplicateKeyError`.  ``None`` values are indexed like any other
    value but never trigger uniqueness conflicts (SQL-style NULL semantics).
    """

    def __init__(self, columns: Iterable[str], unique: bool = False) -> None:
        self.columns = tuple(columns)
        self.unique = unique
        self._buckets: dict[ValueTuple, dict[PkTuple, None]] = {}

    def key_for(self, row: dict[str, Any]) -> ValueTuple:
        return tuple(row[c] for c in self.columns)

    def check(self, row: dict[str, Any], pk: PkTuple) -> None:
        """Raise :class:`DuplicateKeyError` when this unique index holds a
        row other than ``pk`` with ``row``'s key (``Table.update`` checks
        before it touches any index, so a refused update moves no pk)."""
        if not self.unique:
            return
        key = self.key_for(row)
        if None not in key and any(other != pk for other in self.bucket(key)):
            raise self._violation(key)

    def add(self, row: dict[str, Any], pk: PkTuple) -> None:
        key = self.key_for(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {pk: None}
        elif self.unique and None not in key:
            raise self._violation(key)
        else:
            bucket[pk] = None

    def _violation(self, key: ValueTuple) -> DuplicateKeyError:
        return DuplicateKeyError(f"unique index on {self.columns} violated by {key!r}")

    def remove(self, row: dict[str, Any], pk: PkTuple) -> None:
        key = self.key_for(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.pop(pk, None)
        if not bucket:
            del self._buckets[key]

    def bucket(self, key: ValueTuple) -> dict[PkTuple, None]:
        """The live bucket for ``key``, in table scan order (empty when
        absent); do not mutate."""
        return self._buckets.get(key, _EMPTY)

    def lookup(self, *values: Any) -> set[PkTuple]:
        """Return the primary keys of rows whose indexed columns equal
        ``values`` (a copy; safe to mutate)."""
        return set(self.bucket(values))

    def clear(self) -> None:
        """Drop every entry (table truncation)."""
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unique hash" if self.unique else "hash"
        return f"<{kind} index on {self.columns} ({len(self._buckets)} keys)>"

