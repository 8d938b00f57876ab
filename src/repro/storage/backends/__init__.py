"""The durable storage backend and the ``open_database`` entry point.

A database is either purely in memory (no backend attached) or mirrored
to disk by a :class:`~repro.storage.backends.wal.WalBackend`, whose
directory — snapshot plus append-only log — is the one on-disk form.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.storage.backends.base import Mutation
from repro.storage.backends.wal import WalBackend
from repro.storage.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database

__all__ = ["Mutation", "WalBackend", "open_database"]


def open_database(
    path: str | Path | None = None,
    *,
    backend: str = "memory",
    **options: Any,
) -> "Database":
    """Open (or create) a database.

    ``backend="memory"`` returns a bare in-memory database and takes no
    path.  ``backend="wal"`` requires ``path``, the WAL directory;
    ``options`` are forwarded to :class:`WalBackend` (e.g.
    ``compact_every=``).  Existing persisted state is restored; otherwise
    an empty durable database is created.
    """
    from repro.storage.database import Database

    if backend == "memory":
        if path is not None or options:
            raise StorageError("the memory backend takes no path or options")
        return Database()
    if backend != "wal":
        raise StorageError(
            f"unknown storage backend {backend!r}; choose from ['memory', 'wal']"
        )
    if path is None:
        raise StorageError(f"backend {backend!r} requires a path")
    return Database(WalBackend(path, **options))
