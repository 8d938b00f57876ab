"""One shape for cumulative work-counter records.

``EngineStats``, ``PlatformStats`` and ``CacheStats`` are dataclasses of
integer counters that benches, oracles and the metrics collector read as
dicts.  :class:`CounterRecord` gives them ``as_dict``, ``absorb`` and
``to_collector`` driven by the dataclass fields, so adding a counter
means adding its field and nothing else.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from functools import cache
from typing import Any, Callable, ClassVar, Mapping


@cache
def _counter_spec(cls: type) -> tuple[tuple[str, ...], Callable[[Any], tuple]]:
    """The counter names of a record class (fields with an ``int``
    default, in declaration order) and one getter reading them all (a
    record has several counters, so the getter returns a tuple)."""
    names = tuple(f.name for f in fields(cls) if type(f.default) is int)
    return names, operator.attrgetter(*names)


class CounterRecord:
    """Mixin for ``@dataclass`` records of cumulative integer counters.

    The counters are the fields with an ``int`` default, in declaration
    order; any other field (``EngineStats.plans``) is not a counter.
    """

    #: Key prefix :meth:`to_collector` uses when the caller passes none.
    collector_prefix: ClassVar[str] = "stats"

    def as_dict(self) -> dict[str, int]:
        names, values = _counter_spec(type(self))
        return dict(zip(names, values(self)))

    def absorb(self, other: "CounterRecord | Mapping[str, int]") -> None:
        """Add another record's counters into this one.

        ``other`` is a record of the same class or a ``name -> increment``
        mapping (names it lacks add nothing).
        """
        names, values = _counter_spec(type(self))
        if isinstance(other, CounterRecord):
            increments = values(other)
        else:
            increments = [other.get(name, 0) for name in names]
        for name, value in zip(names, increments):
            if value:
                setattr(self, name, getattr(self, name) + value)

    def to_collector(self, collector, prefix: str | None = None) -> None:
        """Add every counter to a :class:`repro.metrics.Collector` (once
        per collector — the values are cumulative)."""
        prefix = prefix or self.collector_prefix
        for name, value in self.as_dict().items():
            collector.count(f"{prefix}.{name}", value)
