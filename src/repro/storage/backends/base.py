"""The physical mutation record a table streams to its durability mirror.

The in-memory :class:`~repro.storage.table.Table` remains the single
source of truth for reads.  When a
:class:`~repro.storage.backends.wal.WalBackend` is attached, every table
emits one :class:`Mutation` per physical row mutation — including the
undo log's raw rollback operations — in exactly the order the table
applied them.  Replaying the stream therefore reproduces row content,
insertion order *and* version counters (every record corresponds to
exactly one ``version`` bump).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Mutation:
    """One physical row mutation, as applied by a :class:`Table`.

    ``op`` is one of ``insert`` (``pk``, ``row``), ``delete`` (``pk``),
    ``replace`` (``pk`` = old key, ``new_pk`` = new key, ``row`` = the full
    replacement row) or ``truncate`` (table only).  ``row`` dicts are the
    table's normalised rows — complete, typed, in schema column order —
    and are JSON-serialisable by construction (the persistence layer
    already relies on this).
    """

    op: str
    table: str
    pk: tuple[Any, ...] | None = None
    row: dict[str, Any] | None = None
    new_pk: tuple[Any, ...] | None = None
