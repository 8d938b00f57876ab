"""In-memory table with integrity enforcement and secondary indexes."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.storage.backends.base import Mutation
from repro.storage.errors import (
    DuplicateKeyError,
    NotNullViolation,
    StorageError,
    UnknownColumnError,
)
from repro.storage.index import HashIndex, PkTuple
from repro.storage.schema import TableSchema
from repro.storage.types import coerce_value

UndoSink = Callable[[Callable[[], None]], None]
MutationSink = Callable[[Mutation], None]


class Table:
    """Rows of one relation, keyed by primary key.

    All reads hand out *copies* of stored rows so callers can never corrupt
    the table by mutating results; the query layer uses the internal
    iterator for speed and is trusted not to mutate.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        #: Monotonically increasing data version.  Bumped by every physical
        #: mutation — including the undo-log's raw rollback operations — so a
        #: cached query result tagged with the versions of its source tables
        #: is provably stale the moment any of them changed.
        self.version: int = 0
        self._rows: dict[PkTuple, dict[str, Any]] = {}
        self._unique_indexes: list[HashIndex] = [
            HashIndex(constraint, unique=True) for constraint in schema.unique
        ]
        self._hash_indexes: dict[tuple[str, ...], HashIndex] = {}
        #: Installed by the owning Database while a transaction is active.
        self.undo_sink: UndoSink | None = None
        #: Installed by the owning Database when a storage backend is
        #: attached: receives one Mutation per physical mutation — undo-log
        #: rollbacks included — in exactly the order they were applied, so
        #: a backend replaying the stream reproduces rows, insertion order
        #: and version counters.
        self.mutation_sink: MutationSink | None = None

    def _emit(
        self,
        op: str,
        pk: PkTuple | None = None,
        row: dict[str, Any] | None = None,
        new_pk: PkTuple | None = None,
    ) -> None:
        if self.mutation_sink is not None:
            self.mutation_sink(Mutation(op, self.schema.name, pk, row, new_pk))

    # -- row normalisation ----------------------------------------------------
    def _normalise(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``values`` into a complete, typed row dict."""
        unknown = set(values) - set(self.schema.column_map)
        if unknown:
            raise UnknownColumnError(
                f"table {self.schema.name!r} has no columns {sorted(unknown)}"
            )
        row: dict[str, Any] = {}
        for column in self.schema.columns:
            if column.name in values:
                value = values[column.name]
            elif column.has_default:
                value = column.resolve_default()
            else:
                value = None
            value = coerce_value(value, column.type)
            if value is None and not column.nullable:
                raise NotNullViolation(
                    f"column {self.schema.name}.{column.name} is not nullable"
                )
            row[column.name] = value
        return row

    # -- mutations --------------------------------------------------------------
    def insert(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert a row; returns a copy of what was stored."""
        return self._insert_row(self._normalise(values))

    def _insert_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Insert a row :meth:`_normalise` produced; the table keeps it."""
        pk = self.schema.pk_tuple(row)
        if pk in self._rows:
            raise DuplicateKeyError(
                f"duplicate primary key {pk!r} in table {self.schema.name!r}"
            )
        self._index_add(row, pk)
        self._rows[pk] = row
        self.version += 1
        self._emit("insert", pk, row)
        if self.undo_sink is not None:
            self.undo_sink(lambda: self._raw_delete(pk))
        return dict(row)

    def update(self, pk: Sequence[Any], changes: Mapping[str, Any]) -> dict[str, Any]:
        """Apply ``changes`` to the row with primary key ``pk``."""
        return self._update_row(*self._merge(pk, changes))

    def _merge(
        self, pk: Sequence[Any], changes: Mapping[str, Any]
    ) -> tuple[PkTuple, dict[str, Any], dict[str, Any]]:
        """``(pk, stored row, normalised row with changes)`` for an update."""
        pk = tuple(pk)
        old = self._rows.get(pk)
        if old is None:
            raise StorageError(
                f"no row with primary key {pk!r} in table {self.schema.name!r}"
            )
        merged = dict(old)
        merged.update(changes)
        return pk, old, self._normalise(merged)

    def _update_row(
        self, pk: PkTuple, old: dict[str, Any], new_row: dict[str, Any]
    ) -> dict[str, Any]:
        """Replace stored row ``old`` at ``pk`` with ``new_row`` from
        :meth:`_merge`; the table keeps ``new_row``."""
        new_pk = self.schema.pk_tuple(new_row)
        if new_pk != pk and new_pk in self._rows:
            raise DuplicateKeyError(
                f"update would duplicate primary key {new_pk!r} "
                f"in table {self.schema.name!r}"
            )
        # Refuse before touching any index: re-adding the old entries after
        # a failed add would move ``pk`` to the end of its buckets while the
        # row keeps its place in ``_rows``, and buckets must stay in scan
        # order for index-backed reads.
        for index in self._unique_indexes:
            index.check(new_row, pk)
        self._index_remove(old, pk)
        self._index_add(new_row, new_pk)
        del self._rows[pk]
        self._rows[new_pk] = new_row
        self.version += 1
        self._emit("replace", pk, new_row, new_pk)
        if self.undo_sink is not None:
            old_copy = dict(old)
            self.undo_sink(lambda: self._raw_replace(new_pk, pk, old_copy))
        return dict(new_row)

    def delete(self, pk: Sequence[Any]) -> dict[str, Any]:
        """Delete and return (a copy of) the row with primary key ``pk``."""
        pk = tuple(pk)
        row = self._rows.get(pk)
        if row is None:
            raise StorageError(
                f"no row with primary key {pk!r} in table {self.schema.name!r}"
            )
        self._index_remove(row, pk)
        del self._rows[pk]
        self.version += 1
        self._emit("delete", pk)
        if self.undo_sink is not None:
            row_copy = dict(row)
            self.undo_sink(lambda: self._raw_insert(row_copy))
        return dict(row)

    def truncate(self) -> int:
        """Remove every row; returns how many were removed."""
        removed = len(self._rows)
        if self.undo_sink is not None:
            rows_copy = [dict(r) for r in self._rows.values()]

            def undo() -> None:
                for row in rows_copy:
                    self._raw_insert(row)

            self.undo_sink(undo)
        self._rows.clear()
        self.version += 1
        for index in self._all_indexes():
            index.clear()
        self._emit("truncate")
        return removed

    # -- raw (no undo, no validation) ops used by the undo log -----------------
    # These are physical mutations too, so they emit to the mutation sink:
    # a backend replaying the stream reproduces rollbacks exactly (same
    # rows, same version bumps) instead of persisting the rolled-back state.
    def _raw_insert(self, row: dict[str, Any]) -> None:
        pk = self.schema.pk_tuple(row)
        self._index_add(row, pk)
        self._rows[pk] = row
        self.version += 1
        self._emit("insert", pk, row)

    def _raw_delete(self, pk: PkTuple) -> None:
        row = self._rows.pop(pk)
        self._index_remove(row, pk)
        self.version += 1
        self._emit("delete", pk)

    def _raw_replace(self, current_pk: PkTuple, old_pk: PkTuple, old_row: dict) -> None:
        current = self._rows.pop(current_pk)
        self._index_remove(current, current_pk)
        self._index_add(old_row, old_pk)
        self._rows[old_pk] = old_row
        self.version += 1
        self._emit("replace", current_pk, old_row, old_pk)

    def _raw_truncate(self) -> None:
        """Replay-side truncate: clear rows and indexes, one version bump,
        no undo entry and no re-emission."""
        self._rows.clear()
        self.version += 1
        for index in self._all_indexes():
            index.clear()

    # -- reads ------------------------------------------------------------------
    def get(self, pk: Sequence[Any]) -> dict[str, Any] | None:
        """Return a copy of the row with primary key ``pk``, or ``None``."""
        row = self._rows.get(tuple(pk))
        return dict(row) if row is not None else None

    def contains(self, pk: Sequence[Any]) -> bool:
        return tuple(pk) in self._rows

    def rows(self) -> Iterator[dict[str, Any]]:
        """Yield a copy of every row (insertion order)."""
        for row in self._rows.values():
            yield dict(row)

    def _iter_internal(self) -> Iterator[dict[str, Any]]:
        """Yield stored row dicts without copying.  Callers must not mutate."""
        return iter(self._rows.values())

    def pks(self) -> Iterator[PkTuple]:
        return iter(self._rows.keys())

    def __len__(self) -> int:
        return len(self._rows)

    # -- secondary indexes --------------------------------------------------------
    def create_index(self, columns: Sequence[str]) -> HashIndex:
        """Create (or return an existing) hash index over ``columns``."""
        key = tuple(columns)
        self.schema._check_columns_exist(key)
        existing = self._hash_indexes.get(key)
        if existing is not None:
            return existing
        index = HashIndex(key)
        for pk, row in self._rows.items():
            index.add(row, pk)
        self._hash_indexes[key] = index
        return index

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> list[dict]:
        """Equality lookup: copies of the rows whose ``columns`` equal
        ``values``, sorted by primary key.

        Reads the bucket of the hash index (unique ones included) over
        exactly ``columns`` when there is one, else scans.  Unlike an
        index-backed :meth:`Query.where <repro.storage.query.Query.where>`,
        which keeps scan order, the result is in primary-key order.
        """
        key = tuple(columns)
        index = self._hash_indexes.get(key)
        if index is None:
            for unique_index in self._unique_indexes:
                if unique_index.columns == key:
                    index = unique_index
                    break
        if index is not None:
            return [dict(self._rows[pk]) for pk in sorted_pks(index.lookup(*values))]
        wanted = tuple(values)
        return [
            dict(row)
            for row in self._rows.values()
            if tuple(row[c] for c in key) == wanted
        ]

    def _probe(self, bindings: Mapping[str, Any]) -> Callable[[], Iterator[dict]] | None:
        """A row source reading one index bucket in place of a scan.

        ``bindings`` maps columns to hashable values.  Picks the hash index
        (unique ones included) with the most columns, all of them bound,
        and returns a callable yielding the stored rows of that one bucket
        in scan order — a superset of the rows that match every binding.
        ``None`` when no index's columns are all bound.  Callers must not
        mutate the rows.
        """
        best: HashIndex | None = None
        for index in (*self._unique_indexes, *self._hash_indexes.values()):
            if all(c in bindings for c in index.columns) and (
                best is None or len(index.columns) > len(best.columns)
            ):
                best = index
        if best is None:
            return None
        key = tuple(bindings[c] for c in best.columns)
        rows = self._rows
        return lambda: (rows[pk] for pk in best.bucket(key))

    def _all_indexes(self):
        yield from self._unique_indexes
        yield from self._hash_indexes.values()

    def _index_add(self, row: dict[str, Any], pk: PkTuple) -> None:
        added: list = []
        try:
            for index in self._all_indexes():
                index.add(row, pk)
                added.append(index)
        except DuplicateKeyError:
            for index in added:
                index.remove(row, pk)
            raise

    def _index_remove(self, row: dict[str, Any], pk: PkTuple) -> None:
        for index in self._all_indexes():
            index.remove(row, pk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Table {self.schema.name!r} ({len(self)} rows)>"


def sorted_pks(pks: set[PkTuple]) -> list[PkTuple]:
    """Sort primary keys for deterministic lookup output, tolerating mixed
    types by falling back to repr ordering."""
    try:
        return sorted(pks)
    except TypeError:
        return sorted(pks, key=repr)
