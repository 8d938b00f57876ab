"""Table schemas: columns, keys and referential constraints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.storage.errors import SchemaError, UnknownColumnError
from repro.storage.types import ColumnType

#: Sentinel meaning "no default declared" (``None`` is a valid default).
NO_DEFAULT = object()


@dataclass(frozen=True)
class Column:
    """A single typed column.

    ``default`` may be a plain value or a zero-argument callable evaluated at
    insert time (useful for timestamps and counters).
    """

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = NO_DEFAULT

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")

    @property
    def has_default(self) -> bool:
        return self.default is not NO_DEFAULT

    def resolve_default(self) -> Any:
        """Return the default value, invoking it if it is callable."""
        if callable(self.default):
            return self.default()
        return self.default


@dataclass(frozen=True)
class ForeignKey:
    """Declares that ``columns`` reference ``ref_columns`` of ``ref_table``."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns} vs {self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key needs at least one column")


class TableSchema:
    """Immutable description of a table.

    Parameters
    ----------
    name:
        Table name (a Python identifier).
    columns:
        Ordered column declarations.
    primary_key:
        Column names forming the primary key.  Every table must have one;
        the platform's catalogues are all keyed.
    unique:
        Additional unique constraints, each a tuple of column names.
    foreign_keys:
        Referential constraints checked by the owning database.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
        unique: Sequence[Sequence[str]] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self.column_map = {c.name: c for c in self.columns}
        if len(self.column_map) != len(self.columns):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.primary_key = tuple(primary_key)
        if not self.primary_key:
            raise SchemaError(f"table {name!r} needs a primary key")
        self._check_columns_exist(self.primary_key)
        for pk_col in self.primary_key:
            if self.column_map[pk_col].nullable:
                raise SchemaError(
                    f"primary-key column {pk_col!r} of {name!r} cannot be nullable"
                )
        self.unique = tuple(tuple(u) for u in unique)
        for constraint in self.unique:
            if not constraint:
                raise SchemaError("empty unique constraint")
            self._check_columns_exist(constraint)
        self.foreign_keys = tuple(foreign_keys)
        for fk in self.foreign_keys:
            self._check_columns_exist(fk.columns)

    def _check_columns_exist(self, names: Sequence[str]) -> None:
        for column_name in names:
            if column_name not in self.column_map:
                raise UnknownColumnError(
                    f"table {self.name!r} has no column {column_name!r}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        """Return the :class:`Column` called ``name``."""
        try:
            return self.column_map[name]
        except KeyError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def pk_tuple(self, row: dict[str, Any]) -> tuple[Any, ...]:
        """Extract the primary-key tuple from ``row``."""
        return tuple(row[c] for c in self.primary_key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(c.name for c in self.columns)
        return f"TableSchema({self.name!r}: {cols}; pk={self.primary_key})"
