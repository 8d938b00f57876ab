"""The database: a catalogue of tables plus cross-table integrity.

Responsibilities beyond what :class:`~repro.storage.table.Table` provides:

* table lifecycle (create / drop / lookup),
* foreign-key enforcement on insert, update and delete,
* undo-log transactions (see :mod:`repro.storage.transactions`),
* durability through an attached :class:`~repro.storage.backends.wal.WalBackend`
  (see :mod:`repro.storage.backends`): every physical mutation streams to
  the write-ahead log, and :func:`~repro.storage.backends.open_database`
  rebuilds an identical database — rows, versions, insertion order — on
  restart.  Without a backend the database lives in memory only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.storage.cache import QueryCache
from repro.storage.errors import (
    ForeignKeyError,
    SchemaError,
    StorageError,
    TransactionError,
    UnknownTableError,
)
from repro.storage.schema import TableSchema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.backends.wal import WalBackend


class Database:
    """A named collection of tables with referential integrity."""

    def __init__(self, backend: "WalBackend | None" = None) -> None:
        self._tables: dict[str, Table] = {}
        self._undo_log_stack: list[list[Callable[[], None]]] = []
        #: Shared result cache for the serving path; entries self-invalidate
        #: via table versions (see :mod:`repro.storage.cache`).
        self.query_cache = QueryCache()
        #: Durability mirror, wired by :meth:`attach_backend`.
        self.backend: WalBackend | None = None
        if backend is not None:
            self.attach_backend(backend)

    # -- durability backend ------------------------------------------------------
    def attach_backend(self, backend: "WalBackend") -> bool:
        """Wire ``backend`` as this database's durability mirror.

        The backend either restores its persisted state into this (empty)
        database or, when it has none, adopts the database's current
        contents as the initial persisted state.  Afterwards every table's
        mutation stream — including undo-log rollbacks — is forwarded to
        the backend.  Returns ``True`` when persisted state was restored.
        """
        if self.backend is not None:
            raise StorageError("database already has a storage backend attached")
        if self.in_transaction:
            raise StorageError("cannot attach a backend inside a transaction")
        had_tables = bool(self._tables)
        restored = backend.attach(self)
        if restored and had_tables:
            raise StorageError(
                "backend restored persisted state into a non-empty database; "
                "attach backends before creating tables"
            )
        self.backend = backend
        for table in self._tables.values():
            table.mutation_sink = backend.on_mutation
        return restored

    def close(self) -> None:
        """Flush and release the attached backend (no-op without one)."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- catalogue ---------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from ``schema``; FK targets must already exist."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            target = self._tables.get(fk.ref_table)
            if target is None:
                raise SchemaError(
                    f"foreign key of {schema.name!r} references unknown table "
                    f"{fk.ref_table!r}"
                )
            target.schema._check_columns_exist(fk.ref_columns)
        table = Table(schema)
        self._tables[schema.name] = table
        if self._undo_log_stack:
            table.undo_sink = self._record_undo
        if self.backend is not None:
            self.backend.on_create_table(schema)
            table.mutation_sink = self.backend.on_mutation
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table; refuses while other tables reference it."""
        table = self.table(name)  # raises UnknownTableError if absent
        for other in self._tables.values():
            if other.schema.name == name:
                continue
            for fk in other.schema.foreign_keys:
                if fk.ref_table == name:
                    raise SchemaError(
                        f"cannot drop {name!r}: referenced by "
                        f"{other.schema.name!r}"
                    )
        del self._tables[name]
        # The dropped table leaves the catalogue, so commit/rollback would
        # never detach its sink: detach here or a later mutation through the
        # orphaned handle records undo entries into a dead (or wrong) log.
        table.undo_sink = None
        table.mutation_sink = None
        if self.backend is not None:
            self.backend.on_drop_table(name)
        # A same-named table created later restarts versions at zero, which
        # could collide with entries recorded against this table.
        self.query_cache.invalidate_all()

    def table(self, name: str) -> Table:
        """Return the table called ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    # -- mutations with FK checks ---------------------------------------------
    def insert(self, table_name: str, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert into ``table_name`` after verifying outgoing foreign keys."""
        table = self.table(table_name)
        row = table._normalise(values)
        self._check_outgoing_fks(table, row)
        return table._insert_row(row)

    def update(
        self, table_name: str, pk: Sequence[Any], changes: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Update a row; re-verifies outgoing FKs and inbound references."""
        table = self.table(table_name)
        pk, old, row = table._merge(pk, changes)
        self._check_outgoing_fks(table, row)
        if table.schema.pk_tuple(row) != pk:
            self._check_no_inbound_references(table, old)
        return table._update_row(pk, old, row)

    def delete(self, table_name: str, pk: Sequence[Any]) -> dict[str, Any]:
        """Delete a row unless another table still references it."""
        table = self.table(table_name)
        row = table.get(pk)
        if row is not None:
            self._check_no_inbound_references(table, row)
        return table.delete(pk)

    def _check_outgoing_fks(self, table: Table, row: dict[str, Any]) -> None:
        for fk in table.schema.foreign_keys:
            values = tuple(row[c] for c in fk.columns)
            if any(v is None for v in values):
                continue  # NULL FK components opt out, as in SQL
            target = self.table(fk.ref_table)
            if tuple(fk.ref_columns) == target.schema.primary_key:
                found = target.contains(values)
            else:
                found = bool(target.lookup(fk.ref_columns, values))
            if not found:
                raise ForeignKeyError(
                    f"{table.schema.name}.{fk.columns} -> "
                    f"{fk.ref_table}.{fk.ref_columns}: no row {values!r}"
                )

    def _check_no_inbound_references(self, table: Table, row: dict[str, Any]) -> None:
        for other in self._tables.values():
            for fk in other.schema.foreign_keys:
                if fk.ref_table != table.schema.name:
                    continue
                referenced = tuple(row[c] for c in fk.ref_columns)
                if other.lookup(fk.columns, referenced):
                    raise ForeignKeyError(
                        f"row {referenced!r} of {table.schema.name!r} is still "
                        f"referenced by {other.schema.name!r}"
                    )

    # -- transactions ---------------------------------------------------------
    def begin(self) -> None:
        """Open a (possibly nested) transaction."""
        self._undo_log_stack.append([])
        for table in self._tables.values():
            table.undo_sink = self._record_undo

    def commit(self) -> None:
        """Commit the innermost transaction.

        Inside a nested transaction the undo entries are folded into the
        parent so an outer rollback still reverts them.
        """
        if not self._undo_log_stack:
            raise TransactionError("commit without begin")
        finished = self._undo_log_stack.pop()
        if self._undo_log_stack:
            self._undo_log_stack[-1].extend(finished)
        else:
            self._detach_sinks()

    def rollback(self) -> None:
        """Undo every mutation of the innermost transaction."""
        if not self._undo_log_stack:
            raise TransactionError("rollback without begin")
        undo_log = self._undo_log_stack.pop()
        for undo in reversed(undo_log):
            undo()
        if not self._undo_log_stack:
            self._detach_sinks()

    @property
    def in_transaction(self) -> bool:
        return bool(self._undo_log_stack)

    def _record_undo(self, undo: Callable[[], None]) -> None:
        self._undo_log_stack[-1].append(undo)

    def _detach_sinks(self) -> None:
        for table in self._tables.values():
            table.undo_sink = None

    # -- conveniences -----------------------------------------------------------
    def query(self, table_name: str) -> "Query":
        """Start a :class:`~repro.storage.query.Query` over ``table_name``."""
        from repro.storage.query import Query

        return Query.scan(self, table_name)

    def counts(self) -> dict[str, int]:
        """Return ``{table_name: row_count}`` for every table."""
        return {name: len(table) for name, table in self._tables.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Database tables={list(self._tables)}>"
