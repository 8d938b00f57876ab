"""Column types and value coercion.

The engine supports a compact set of types sufficient for the platform's
catalogues.  Coercion is strict: we accept only lossless conversions
(``int`` → ``float``, ``bool`` is *not* an ``int`` here) so that application
bugs surface as :class:`TypeMismatchError` instead of silent corruption.
"""

from __future__ import annotations

import enum
import json
from typing import Any

from repro.storage.errors import TypeMismatchError


class ColumnType(enum.Enum):
    """Declared type of a column."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    JSON = "json"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnType.{self.name}"


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Coerce ``value`` to ``column_type`` or raise :class:`TypeMismatchError`.

    ``None`` passes through unchanged; nullability is checked separately by
    the table layer, which knows the column's declaration.

    >>> coerce_value(3, ColumnType.FLOAT)
    3.0
    >>> coerce_value("yes", ColumnType.BOOL)
    Traceback (most recent call last):
        ...
    repro.storage.errors.TypeMismatchError: cannot store 'yes' in a bool column
    """
    if value is None:
        return None
    if column_type is ColumnType.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"cannot store {value!r} in an int column")
        return value
    if column_type is ColumnType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"cannot store {value!r} in a float column")
        return float(value)
    if column_type is ColumnType.TEXT:
        if not isinstance(value, str):
            raise TypeMismatchError(f"cannot store {value!r} in a text column")
        return value
    if column_type is ColumnType.BOOL:
        if not isinstance(value, bool):
            raise TypeMismatchError(f"cannot store {value!r} in a bool column")
        return value
    if column_type is ColumnType.JSON:
        try:
            json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise TypeMismatchError(
                f"cannot store {value!r} in a json column: {exc}"
            ) from exc
        return value
    raise TypeMismatchError(f"unsupported column type: {column_type!r}")
