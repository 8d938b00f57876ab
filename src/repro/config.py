"""Runtime configuration for platform and server construction.

:class:`RuntimeConfig` gathers every knob that used to travel as separate
keyword arguments on ``Crowd4U(...)`` — storage backend and the serving
front-end — into one validated value object:

>>> from repro import Crowd4U, RuntimeConfig
>>> platform = Crowd4U(config=RuntimeConfig(backend="wal", path="crowd.d"))

``config=`` is the only spelling.  The serving slice nests as a
frozen :class:`~repro.serving.config.ServingConfig`
(``RuntimeConfig(serving=ServingConfig(port=8080))``), and
:meth:`RuntimeConfig.build_server` is the one way to construct a
:class:`~repro.serving.server.PlatformServer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.serving.config import ServingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.server import PlatformServer
    from repro.storage.database import Database

_BACKENDS = ("memory", "wal")


@dataclass(frozen=True)
class RuntimeConfig:
    """One value object describing how a deployment runs.

    Storage: ``backend`` is ``"memory"`` (no durability; no backend is
    attached) or ``"wal"`` (see :mod:`repro.storage.backends.wal`), which
    requires ``path``, the WAL directory.  ``backend_options`` is
    forwarded to the WAL backend constructor (e.g.
    ``{"compact_every": 1000}``).

    Serving: ``serving`` is the nested frozen
    :class:`~repro.serving.config.ServingConfig` — bind address,
    queue depth, tick batch size and backpressure thresholds for the
    HTTP front-end built by :meth:`build_server`.
    """

    backend: str = "memory"
    path: str | Path | None = None
    backend_options: dict[str, Any] = field(default_factory=dict)
    serving: ServingConfig = field(default_factory=ServingConfig)

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.backend != "memory" and self.path is None:
            raise ValueError(f"backend {self.backend!r} requires a path")
        if self.backend == "memory" and self.path is not None:
            raise ValueError("the memory backend takes no path")
        if not isinstance(self.serving, ServingConfig):
            raise TypeError(
                f"serving must be a ServingConfig, got {type(self.serving).__name__}"
            )

    def with_changes(self, **changes: Any) -> "RuntimeConfig":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)

    def build_database(self) -> "Database":
        """Open the database this configuration describes."""
        from repro.storage.backends import open_database

        return open_database(self.path, backend=self.backend, **self.backend_options)

    def build_server(self, platform=None, **server_options: Any) -> "PlatformServer":
        """The one way to get a :class:`~repro.serving.server.PlatformServer`.

        Builds a :class:`~repro.core.platform.Crowd4U` from this
        configuration when ``platform`` is not supplied; the server's
        knobs come from the nested :attr:`serving` slice.
        ``server_options`` are forwarded to the server constructor
        (e.g. ``record_journal=True`` for the serving-diff oracle).
        """
        from repro.serving.server import PlatformServer

        if platform is None:
            from repro.core.platform import Crowd4U

            platform = Crowd4U(config=self)
        return PlatformServer(platform, self.serving, **server_options)
