"""The serving front-end's configuration surface.

:class:`ServingConfig` is a frozen value object, designed rather than
accreted: every knob of the HTTP front-end — bind address, tick size,
backpressure thresholds, protocol limits — lives here, and the
object composes into :class:`repro.config.RuntimeConfig` (``serving=``)
so one ``RuntimeConfig`` describes a whole deployment, storage to socket.
``RuntimeConfig.build_server()`` is the one way to get a
:class:`~repro.serving.server.PlatformServer`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """How one :class:`~repro.serving.server.PlatformServer` runs.

    Network: ``host``/``port`` are the bind address; port ``0`` asks the
    OS for an ephemeral port (the bound address is reported by
    :attr:`PlatformServer.address` after start — the test and bench
    default).

    Group commit: writes are admitted into a bounded queue that a single
    drainer empties once per *tick*.  When the first queued write arrives
    the drainer takes whatever else is already queued (up to
    ``max_batch`` operations) and applies the whole burst inside one
    engine continuation per project — writes that arrive during a tick
    form the next one, so concurrent submissions share an evaluation
    without any write waiting on a timer.

    Backpressure: a write is rejected with ``429 Retry-After`` when the
    admission queue already holds ``queue_depth`` operations, or when the
    queue has been continuously non-empty for longer than
    ``max_round_lag`` seconds (the drainer's ticks are falling behind the
    arrival rate).  ``retry_after`` is the integer number of seconds put
    in the ``Retry-After`` header.

    Protocol limits: requests whose header block exceeds
    ``max_header_bytes`` or whose body exceeds ``max_body_bytes`` are
    refused (431/413) before touching platform state.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 512
    queue_depth: int = 1024
    max_round_lag: float = 0.5
    retry_after: int = 1
    max_header_bytes: int = 32768
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be within [0, 65535], got {self.port}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_round_lag <= 0:
            raise ValueError(f"max_round_lag must be > 0, got {self.max_round_lag}")
        if self.retry_after < 0:
            raise ValueError(f"retry_after must be >= 0, got {self.retry_after}")
        if self.max_header_bytes < 256:
            raise ValueError(
                f"max_header_bytes must be >= 256, got {self.max_header_bytes}"
            )
        if self.max_body_bytes < 0:
            raise ValueError(
                f"max_body_bytes must be >= 0, got {self.max_body_bytes}"
            )

    def with_changes(self, **changes: Any) -> "ServingConfig":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)
