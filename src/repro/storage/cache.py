"""Invalidation-correct memoisation of query results.

The cache is the storage half of the platform's serving path: worker pages
and task UIs re-run the same select/join pipelines on every render, while
the underlying tables change only a little between platform rounds.  Each
cached entry is tagged with the :attr:`~repro.storage.table.Table.version`
of every table the query read.  Versions advance on *every* physical
mutation — inserts, updates, deletes, truncation and the undo-log's raw
rollback operations — so a lookup can decide staleness with one tuple
comparison and never needs explicit invalidation hooks.

Entries are LRU-bounded; statistics are exposed ``EngineStats``-style so
benches and the metrics collector can report hit/miss/invalidation rates.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Sequence

from repro.metrics.counters import CounterRecord


@dataclass
class CacheStats(CounterRecord):
    """Work counters for one :class:`QueryCache` (cumulative).

    ``hits`` are served straight from memory, ``misses`` are cold
    computations, ``invalidations`` are recomputations forced by a table
    version moving past a stored entry, and ``evictions`` count LRU drops.
    Every fetch is exactly one of hit / miss / invalidation.

    :meth:`absorb` also takes a ``name -> increment`` mapping, which lets
    a consumer keep its own attribution slice of a shared cache: the
    worker page absorbs exactly the hits/misses its renders incurred into
    a caller-supplied block (see
    :func:`repro.forms.worker_page.render_worker_page`), so the serving
    read path's cache effectiveness is observable per server rather than
    inferred from the database-wide totals.
    """

    collector_prefix = "query_cache"

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def fetches(self) -> int:
        return self.hits + self.misses + self.invalidations


@contextlib.contextmanager
def observe_cache(cache: "QueryCache", stats: CacheStats | None) -> Iterator[None]:
    """Attribute the cache activity inside the block to ``stats``.

    ``stats=None`` observes nothing (the zero-overhead default); the
    global :attr:`QueryCache.stats` totals keep counting either way.
    """
    if stats is None:
        yield
        return
    before = cache.stats.as_dict()
    try:
        yield
    finally:
        after = cache.stats.as_dict()
        stats.absorb({name: after[name] - before[name] for name in after})


class QueryCache:
    """LRU cache of query results keyed on (plan, source-table versions)."""

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self.stats = CacheStats()
        #: plan key -> (versions tuple, result rows)
        self._entries: OrderedDict[Hashable, tuple[tuple[int, ...], list]] = (
            OrderedDict()
        )

    def fetch(
        self,
        plan: Hashable,
        tables: Sequence[Any],
        compute: Callable[[], list],
    ) -> list:
        """Return the result for ``plan``, recomputing when any source table
        version moved.  The returned list is the *stored* one — callers must
        copy rows before handing them out to mutation-happy code."""
        versions = tuple(table.version for table in tables)
        entry = self._entries.get(plan)
        if entry is not None:
            if entry[0] == versions:
                self.stats.hits += 1
                self._entries.move_to_end(plan)
                return entry[1]
            self.stats.invalidations += 1
        else:
            self.stats.misses += 1
        rows = compute()
        self._entries[plan] = (versions, rows)
        self._entries.move_to_end(plan)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return rows

    def invalidate_all(self) -> None:
        """Drop every entry (schema changes, tests)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<QueryCache {len(self._entries)}/{self.maxsize} entries, "
            f"{s.hits}h/{s.misses}m/{s.invalidations}i>"
        )
