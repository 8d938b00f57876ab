"""The asyncio serving front-end: cache-fed reads, queue-coalesced writes.

:class:`PlatformServer` is the platform's first network surface.  Its
design isolates request handling from engine ticks (the HTAP lesson —
the serving path and the derivation path contend for the same data, so
they must not interleave per-request):

* **Reads never touch the engine.**  Worker pages and task UIs render
  from the version-keyed storage query cache; between platform
  mutations, thousands of concurrent GETs cost dict lookups.
* **Writes are admitted, not applied.**  Every POST decodes into a
  :class:`~repro.serving.ops.WriteOp` and enters a bounded admission
  queue; the request's response future resolves when the drainer has
  applied its operation.
* **One drainer group-commits.**  A single background task waits for the
  first queued write, takes whatever else is already queued (up to
  ``max_batch``) and applies the burst through
  :func:`~repro.serving.ops.apply_ops` — one engine continuation per
  project per tick, not per request.  No timer holds a write back:
  writes that arrive during a tick form the next one (Polynesia,
  arXiv 2103.00798 — updates must not queue behind a timer).
* **Backpressure is explicit.**  When the queue is at
  ``queue_depth`` or has been continuously non-empty for longer than
  ``max_round_lag``, new writes get ``429`` with a ``Retry-After``
  header instead of unbounded queueing.

Lifecycle is explicit: :meth:`start` binds and spawns the drainer,
:meth:`drain` stops admission and returns once every admitted write has
been applied and answered, :meth:`close` releases the socket; ``async
with`` does start/drain/close.  Construct through
:meth:`repro.config.RuntimeConfig.build_server` — serving knobs live in
the composed :class:`~repro.serving.config.ServingConfig`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.serving.config import ServingConfig
from repro.serving.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    encode_response,
    read_request,
)
from repro.serving.ops import WriteOp, apply_ops
from repro.serving.stats import ServingStats

__all__ = ["PlatformServer", "ServerClosed"]


class ServerClosed(RuntimeError):
    """The server shut down while a write waited in the admission queue."""


class PlatformServer:
    """One HTTP front-end over one :class:`repro.core.Crowd4U` platform.

    ``record_journal=True`` keeps an admission journal — ``(tick,
    WriteOp)`` in applied order — that the serving-diff oracle replays
    through :func:`~repro.serving.ops.apply_ops` against a fresh
    platform to prove the network surface is semantics-preserving.
    """

    def __init__(
        self,
        platform,
        config: ServingConfig | None = None,
        *,
        record_journal: bool = False,
    ) -> None:
        self.platform = platform
        self.config = config or ServingConfig()
        self.stats = ServingStats()
        self.record_journal = record_journal
        #: (tick, op) admission journal in applied order.
        self.journal: list[tuple[int, WriteOp]] = []
        self._state = "new"
        self._server: asyncio.AbstractServer | None = None
        self._drainer: asyncio.Task | None = None
        self._queue: asyncio.Queue[tuple[WriteOp, asyncio.Future]] | None = None
        #: Monotonic time the queue last became non-empty (None = empty).
        self._backlog_since: float | None = None
        self._tick = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — meaningful after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def state(self) -> str:
        """``new`` → ``serving`` → ``draining`` → ``closed``."""
        return self._state

    async def start(self) -> "PlatformServer":
        """Bind the socket and spawn the drainer; idempotent errors out."""
        if self._state != "new":
            raise RuntimeError(f"cannot start a {self._state} server")
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self._drainer = asyncio.create_task(self._drain_loop())
        self._state = "serving"
        return self

    async def drain(self) -> None:
        """Stop admitting writes; return once every admitted write has been
        applied and its response future resolved.

        The drainer marks each op done only after its tick resolved the
        op's future, so ``Queue.join`` also covers a burst the drainer
        has already taken off the queue.
        """
        if self._state in ("new", "closed"):
            return
        self._state = "draining"
        assert self._queue is not None
        await self._queue.join()

    async def close(self) -> None:
        """Release the socket and stop the drainer (unapplied writes get
        :class:`ServerClosed`); safe to call twice."""
        if self._state == "closed":
            return
        self._state = "closed"
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
        if self._queue is not None:
            while self._queue.qsize():
                _, future = self._queue.get_nowait()
                self._queue.task_done()
                if not future.done():
                    future.set_exception(ServerClosed("server closed"))

    async def __aenter__(self) -> "PlatformServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.drain()
        await self.close()

    # ------------------------------------------------------------------
    # Admission + drain loop
    # ------------------------------------------------------------------
    def _admit(self, op: WriteOp) -> "asyncio.Future | HttpResponse":
        """Queue one write; a :class:`HttpResponse` means rejection."""
        if self._state != "serving" or self._queue is None:
            self.stats.rejected_closed += 1
            return HttpResponse.error(503, f"server is {self._state}")
        now = time.monotonic()
        retry = {"Retry-After": str(self.config.retry_after)}
        if self._queue.qsize() >= self.config.queue_depth:
            self.stats.rejected_depth += 1
            return HttpResponse.error(429, "admission queue full", headers=retry)
        if (
            self._backlog_since is not None
            and now - self._backlog_since > self.config.max_round_lag
        ):
            self.stats.rejected_lag += 1
            return HttpResponse.error(
                429, "platform rounds are falling behind", headers=retry
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if self._backlog_since is None:
            self._backlog_since = now
        self._queue.put_nowait((op, future))
        self.stats.admitted += 1
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, self._queue.qsize()
        )
        return future

    async def _drain_loop(self) -> None:
        """Group commit: wait for one write, take what else is queued."""
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.max_batch and self._queue.qsize():
                batch.append(self._queue.get_nowait())
            try:
                self._apply_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            if not self._queue.qsize():
                self._backlog_since = None

    def _apply_batch(
        self, batch: list[tuple[WriteOp, asyncio.Future]]
    ) -> None:
        """One tick: apply the burst synchronously (the event loop blocks,
        so reads and the engine never interleave mid-operation), then
        resolve every waiter."""
        self._tick += 1
        started = time.perf_counter()
        ops = [op for op, _ in batch]
        try:
            outcomes = apply_ops(self.platform, ops)
        except Exception as exc:  # noqa: BLE001 - engine failure fails the batch
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            self.stats.record_tick(len(batch), time.perf_counter() - started)
            return
        self.stats.record_tick(len(batch), time.perf_counter() - started)
        if self.record_journal:
            self.journal.extend((self._tick, op) for op in ops)
        for (_, future), outcome in zip(batch, outcomes):
            if outcome.ok:
                body = {"ok": True, "result": outcome.value, "tick": self._tick}
                response = HttpResponse.json(body)
            else:
                self.stats.op_errors += 1
                response = HttpResponse.json(
                    {"ok": False, "error": outcome.error, "tick": self._tick},
                    status=outcome.status,
                )
            if not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    # Connection handling + routing
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            HttpResponse.error(exc.status, exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive and self._state == "serving"
                writer.write(encode_response(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        try:
            segments = [s for s in request.path.split("/") if s]
            if request.method == "GET":
                return self._dispatch_read(request, segments)
            if request.method == "POST":
                op = self._decode_write(request, segments)
                if op is None:
                    return HttpResponse.error(
                        404, f"no such endpoint POST {request.path}"
                    )
                admitted = self._admit(op)
                if isinstance(admitted, HttpResponse):
                    return admitted
                try:
                    return await admitted
                except ServerClosed:
                    return HttpResponse.error(503, "server closed while queued")
            return HttpResponse.error(405, f"unsupported method {request.method}")
        except HttpError as exc:
            return HttpResponse.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the loop
            return HttpResponse.error(500, f"{type(exc).__name__}: {exc}")

    def _dispatch_read(
        self, request: HttpRequest, segments: list[str]
    ) -> HttpResponse:
        from repro.errors import PlatformError

        self.stats.reads += 1
        try:
            if segments == ["healthz"]:
                backlog = self._queue.qsize() if self._queue is not None else 0
                return HttpResponse.json(
                    {
                        "status": self._state,
                        "queue_depth": backlog,
                        "tick": self._tick,
                    }
                )
            if segments == ["stats"]:
                return HttpResponse.json(
                    {
                        "serving": self.stats.as_dict(),
                        "read_cache": self.stats.read_cache.as_dict(),
                        **self.platform.stats_summary(),
                    }
                )
            if segments == ["snapshot"]:
                return HttpResponse.json(self.platform.snapshot())
            if (
                len(segments) == 3
                and segments[0] == "workers"
                and segments[2] == "page"
            ):
                from repro.forms.worker_page import render_worker_page

                return HttpResponse.html(
                    render_worker_page(
                        self.platform,
                        segments[1],
                        cache_stats=self.stats.read_cache,
                    )
                )
            if len(segments) == 3 and segments[0] == "tasks" and segments[2] == "ui":
                from repro.forms.task_ui import render_task_ui

                worker_id = request.query.get("worker")
                if not worker_id:
                    return HttpResponse.error(400, "missing ?worker= parameter")
                return HttpResponse.html(
                    render_task_ui(self.platform, segments[1], worker_id)
                )
        except PlatformError as exc:
            return HttpResponse.error(
                404 if "unknown" in str(exc) else 409, str(exc)
            )
        return HttpResponse.error(404, f"no such endpoint GET {request.path}")

    def _decode_write(
        self, request: HttpRequest, segments: list[str]
    ) -> WriteOp | None:
        """Map ``POST path + body`` to a :class:`WriteOp` (None = 404)."""
        payload = request.payload()
        if segments == ["workers"]:
            return WriteOp("register_worker", payload)
        if len(segments) == 3 and segments[0] == "workers" and segments[2] == "factors":
            return WriteOp(
                "update_factors",
                {"worker_id": segments[1], "fields": payload},
            )
        if len(segments) == 3 and segments[0] == "tasks":
            task_id, action = segments[1], segments[2]
            task_actions = {
                "interest": "declare_interest",
                "confirm": "confirm_membership",
                "decline": "decline_membership",
            }
            if action in task_actions:
                worker_id = payload.get("worker_id")
                if not worker_id:
                    raise HttpError(400, "missing worker_id")
                return WriteOp(
                    task_actions[action],
                    {"worker_id": worker_id, "task_id": task_id},
                )
            if action == "submit":
                worker_id = payload.pop("worker_id", None)
                if not worker_id:
                    raise HttpError(400, "missing worker_id")
                result = payload.pop("result", None)
                if result is None:
                    result = payload  # bare form fields are the result
                return WriteOp(
                    "submit_result",
                    {"task_id": task_id, "worker_id": worker_id, "result": result},
                )
            if action == "contribute":
                worker_id = payload.get("worker_id")
                if not worker_id:
                    raise HttpError(400, "missing worker_id")
                return WriteOp(
                    "contribute",
                    {
                        "task_id": task_id,
                        "worker_id": worker_id,
                        "content": payload.get("content", ""),
                    },
                )
        if len(segments) == 3 and segments[0] == "projects":
            project_id, action = segments[1], segments[2]
            if action == "answers":
                return WriteOp(
                    "supply_answer", {"project_id": project_id, **payload}
                )
            if action == "tasks":
                return WriteOp("post_task", {"project_id": project_id, **payload})
        if segments == ["step"]:
            return WriteOp("step", payload)
        return None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats_sections(self) -> dict[str, dict[str, Any]]:
        """Serving + platform counter sections for
        :func:`repro.metrics.format_stats_table`."""
        return {**self.stats.sections(), **self.platform.stats_summary()}

    def collect_stats(self, collector) -> None:
        """Feed serving and platform counters into a
        :class:`repro.metrics.Collector` (call once per collector)."""
        self.stats.to_collector(collector)
        self.platform.collect_stats(collector)
