"""Measurement helpers: percentiles, the tail rule, counter deltas, spans.

Pure functions and one small span recorder, so the benchmark's
arithmetic is unit-tested apart from any deployment.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> int | None:
    """The highest whole percentile in [50, 99] that leaves at least
    ``min_beyond`` of ``n`` samples strictly above its nearest rank, or
    ``None`` when even the median does not."""
    for pct in range(99, 49, -1):
        if n - math.ceil(pct / 100.0 * n) >= min_beyond:
            return pct
    return None


@dataclass(frozen=True)
class Summary:
    n: int
    p50: float
    tail_pct: int | None
    tail: float | None


def summarize(samples: list[float]) -> Summary:
    pct = tail_percentile(len(samples))
    return Summary(
        n=len(samples),
        p50=percentile(samples, 50),
        tail_pct=pct,
        tail=percentile(samples, pct) if pct is not None else None,
    )


def best_of(replays: list[list[float]]) -> list[float]:
    """Each op's best time over replays of one script: the element-wise
    minimum of equally long sample lists, in script order."""
    if len({len(samples) for samples in replays}) != 1:
        raise ValueError("replays of one script recorded different op counts")
    return [min(times) for times in zip(*replays)]


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any]) -> dict:
    """``after - before`` over (nested) counter dicts.

    Keys only in ``after`` count from zero (a counter born after the
    warm-up snapshot); non-numeric leaves are dropped.
    """
    delta: dict[str, Any] = {}
    for key, value in after.items():
        prior = before.get(key)
        if isinstance(value, Mapping):
            delta[key] = counter_delta(prior if isinstance(prior, Mapping) else {}, value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - (prior if isinstance(prior, (int, float)) else 0)
    return delta


def flatten(counters: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """``{"a": {"b": 1}}`` -> ``{"a.b": 1}``."""
    flat: dict[str, float] = {}
    for key, value in counters.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten(value, name + "."))
        else:
            flat[name] = value
    return flat


def drifted(runs: list[Mapping[str, Any]]) -> list[str]:
    """Counter names whose values differ between any of ``runs``."""
    flats = [flatten(run) for run in runs]
    names = sorted(set().union(*flats)) if flats else []
    return [
        name for name in names
        if len({flat.get(name) for flat in flats}) > 1
    ]


@dataclass
class SpanStats:
    """Per-name totals.  ``count``/``total`` cover outermost calls only
    (a re-entrant call is already inside its outer call's interval);
    ``self_total`` sums every call's time outside its child spans."""

    count: int = 0
    total: float = 0.0
    self_total: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {"count": self.count, "total": self.total, "self": self.self_total}


class Tracer:
    """Nested spans on one thread (or one asyncio task chain at a time).

    ``keep`` names record every outermost call's duration in
    :attr:`calls`; ``scopes`` names count, per scope, the spans that ran
    inside an open span of that scope (:attr:`scoped`).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: tuple[str, ...] = (),
        scopes: tuple[str, ...] = (),
    ) -> None:
        self.clock = clock
        self.keep = frozenset(keep)
        self.scopes = tuple(scopes)
        self.spans: dict[str, SpanStats] = {}
        self.calls: dict[str, list[float]] = {name: [] for name in keep}
        self.scoped: Counter = Counter()
        #: Time inside outermost spans (nothing open around them).
        self.root_total = 0.0
        self._stack: list[list[Any]] = []  # [name, start, child time]
        self._depth: Counter = Counter()

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self._depth[name] -= 1
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.self_total += duration - child
        if not self._depth[name]:
            stats.count += 1
            stats.total += duration
            if name in self.keep:
                self.calls[name].append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_total += duration
        for scope in self.scopes:
            if scope != name and self._depth[scope]:
                self.scoped[scope, name] += 1

    def take(self) -> dict[str, Any]:
        """Everything recorded so far, then start over (phase boundary)."""
        if self._stack:
            raise RuntimeError(f"open spans at a phase boundary: {self._stack}")
        taken = {
            "spans": {name: s.as_dict() for name, s in self.spans.items()},
            "calls": self.calls,
            "scoped": {f"{s}>{n}": c for (s, n), c in self.scoped.items()},
            "root_total": self.root_total,
        }
        self.root_total = 0.0
        self.spans = {}
        self.calls = {name: [] for name in self.keep}
        self.scoped = Counter()
        return taken


def wrap(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    """Replace ``owner.attr`` (a function or coroutine function) with a
    version that records a span named ``name`` around every call."""
    import functools
    import inspect

    original = getattr(owner, attr)
    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.exit()
    else:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit()
    setattr(owner, attr, traced)


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
