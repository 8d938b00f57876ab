"""Monotonic, prefixed identifier generation.

Entities across the platform (workers, tasks, teams, projects, documents)
carry short human-readable ids such as ``w0042`` or ``task00107``.  Using a
factory per entity type keeps ids dense and deterministic, which matters for
reproducible experiment output.
"""

from __future__ import annotations

from typing import Iterable


class IdFactory:
    """Produce ids ``<prefix><counter>`` with zero-padded counters.

    >>> f = IdFactory("w", width=4)
    >>> f.next(), f.next()
    ('w0000', 'w0001')
    >>> f.skip_past(["w0041", "x9999"])
    >>> f.next()
    'w0042'
    """

    def __init__(self, prefix: str, width: int = 5, start: int = 0) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.prefix = prefix
        self.width = width
        self._count = start

    def next(self) -> str:
        """Return the next identifier in the sequence."""
        count = self._count
        self._count += 1
        return f"{self.prefix}{count:0{self.width}d}"

    def peek_count(self) -> int:
        """Return the counter the next id will carry (ids handed out so far,
        for a factory started at zero); the factory is not advanced."""
        return self._count

    def skip_past(self, ids: Iterable[str]) -> None:
        """Continue after the largest ``<prefix><number>`` among ``ids``.

        A registry reopened over persisted rows calls this with their ids,
        so it never hands out an id an earlier run already used.
        """
        offset = len(self.prefix)
        for existing in ids:
            head, suffix = existing[:offset], existing[offset:]
            if head == self.prefix and suffix.isascii() and suffix.isdigit():
                self._count = max(self._count, int(suffix) + 1)
