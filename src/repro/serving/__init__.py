"""repro.serving — the async HTTP front-end with group-commit admission.

The platform's first public network surface, designed rather than
accreted:

* :class:`ServingConfig` — frozen serving knobs (bind address, tick
  size, queue depth, lag thresholds), composed into
  :class:`repro.config.RuntimeConfig` as ``serving=``;
  ``RuntimeConfig.build_server()`` is the one way to get a server.
* :class:`PlatformServer` — asyncio HTTP/1.1 server with explicit
  lifecycle (``start`` / ``drain`` / ``close``, async context manager):
  reads render from the version-keyed query cache, writes funnel through
  a bounded admission queue that one drainer group-commits into engine
  bursts (no batch timer), with ``429 Retry-After`` backpressure.
* :class:`ServingStats` — admitted/coalesced/rejected counters, queue
  depth and tick latency, folded into
  :func:`repro.metrics.format_stats_table`.
* :class:`WriteOp` / :func:`apply_ops` — the write vocabulary shared by
  the server's drainer and the serving-diff oracle's direct replay.
* :class:`AdmissionGate` — the same bounded-queue backpressure as the
  server, synchronously, for scenario packs replaying traffic surges.
* :func:`http_request` — the minimal matching client (tests, benches,
  examples).

Heavy submodules load lazily (PEP 562): importing :mod:`repro.serving`
for its config does not pull in the platform stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.serving.config import ServingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.gate import AdmissionGate
    from repro.serving.http import http_request
    from repro.serving.ops import OpOutcome, WriteOp, apply_ops
    from repro.serving.server import PlatformServer, ServerClosed
    from repro.serving.stats import ServingStats

__all__ = [
    "AdmissionGate",
    "OpOutcome",
    "PlatformServer",
    "ServerClosed",
    "ServingConfig",
    "ServingStats",
    "WriteOp",
    "apply_ops",
    "http_request",
]

#: attribute -> defining submodule, resolved on first touch.
_LAZY = {
    "AdmissionGate": "repro.serving.gate",
    "OpOutcome": "repro.serving.ops",
    "PlatformServer": "repro.serving.server",
    "ServerClosed": "repro.serving.server",
    "ServingStats": "repro.serving.stats",
    "WriteOp": "repro.serving.ops",
    "apply_ops": "repro.serving.ops",
    "http_request": "repro.serving.http",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
