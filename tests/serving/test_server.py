"""PlatformServer: lifecycle, routing, group commit, backpressure."""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.config import RuntimeConfig
from repro.core import Crowd4U, HumanFactors
from repro.metrics import Collector, format_stats_table
from repro.serving import PlatformServer, ServerClosed, ServingConfig, ServingStats
from repro.serving.http import HttpClient, http_request

CYLOG_SOURCE = """
    open rate(item: text, verdict: text) key (item) asking "Rate {item}".
    item("i1"). item("i2").
    rated(I, V) :- item(I), rate(I, V).
"""

FACTORS = {
    "native_languages": ["en"],
    "languages": {"fr": 0.8},
    "skills": {"translation": 0.7},
    "reliability": 0.9,
}


def run(coro):
    return asyncio.run(coro)


def make_platform(seed: int = 3) -> Crowd4U:
    platform = Crowd4U(seed=seed)
    platform.register_project("survey", "req", CYLOG_SOURCE)
    return platform


async def _freeze_drainer(server: PlatformServer) -> None:
    """Cancel the drainer so admitted writes stay queued."""
    server._drainer.cancel()
    try:
        await server._drainer
    except asyncio.CancelledError:
        pass


class TestServingConfig:
    def test_defaults_and_with_changes(self):
        config = ServingConfig()
        assert config.port == 0
        changed = config.with_changes(port=8080, max_batch=4)
        assert (changed.port, changed.max_batch) == (8080, 4)
        assert config.port == 0, "with_changes must not mutate the original"

    def test_frozen(self):
        with pytest.raises(Exception):
            ServingConfig().port = 99

    def test_validation(self):
        for bad in (
            {"host": ""},
            {"port": -1},
            {"max_batch": 0},
            {"queue_depth": 0},
            {"max_round_lag": 0.0},
            {"retry_after": -1},
            {"max_header_bytes": 0},
            {"max_body_bytes": -1},
        ):
            with pytest.raises(ValueError):
                ServingConfig(**bad)

    def test_batch_window_removed(self):
        """The drainer group-commits with no timer; the knob is gone."""
        with pytest.raises(TypeError):
            ServingConfig(batch_window=0.005)


class TestServingStats:
    def test_coalescing_and_ticks(self):
        stats = ServingStats()
        assert stats.coalescing == 0.0
        stats.record_tick(8, 0.002)
        stats.record_tick(4, 0.005)
        stats.admitted = 12
        assert stats.ticks == 2
        assert stats.applied == 12
        assert stats.coalescing == 6.0
        assert stats.as_dict()["coalescing_x"] == 6.0
        assert stats.tick_latency_max_s == 0.005

    def test_rejected_total(self):
        stats = ServingStats(rejected_depth=2, rejected_lag=1, rejected_closed=3)
        assert stats.rejected == 6

    def test_sections_feed_format_stats_table(self):
        stats = ServingStats(reads=5)
        stats.read_cache.hits = 4
        table = format_stats_table(stats.sections())
        assert "serving" in table and "reads" in table
        assert "serving_read_cache" in table and "hits" in table

    def test_to_collector(self):
        collector = Collector()
        ServingStats(reads=3).to_collector(collector)
        counters = dict(collector.counters)
        assert counters["serving.reads"] == 3
        assert "serving.read_cache.hits" in counters


class TestLifecycle:
    def test_states_and_idempotent_close(self):
        async def go():
            platform = make_platform()
            server = PlatformServer(platform, ServingConfig())
            assert server.state == "new"
            with pytest.raises(RuntimeError, match="not started"):
                server.address
            await server.start()
            assert server.state == "serving"
            host, port = server.address
            assert host == "127.0.0.1" and port > 0
            with pytest.raises(RuntimeError, match="cannot start"):
                await server.start()
            await server.drain()
            assert server.state == "draining"
            await server.close()
            assert server.state == "closed"
            await server.close()  # safe to call twice
            platform.close()

        run(go())

    def test_async_context_manager(self):
        async def go():
            config = RuntimeConfig(serving=ServingConfig())
            server = config.build_server()
            async with server:
                assert server.state == "serving"
                response = await http_request(
                    *server.address, "GET", "/healthz"
                )
                assert response.status == 200
            assert server.state == "closed"
            server.platform.close()

        run(go())

    def test_writes_rejected_while_draining(self):
        async def go():
            platform = make_platform()
            async with PlatformServer(platform, ServingConfig()) as server:
                address = server.address
                await server.drain()
                response = await http_request(*address, "POST", "/step", json_body={})
                assert response.status == 503
                assert server.stats.rejected_closed == 1
            platform.close()

        run(go())

    def test_close_fails_queued_writes(self):
        async def go():
            platform = make_platform()
            server = PlatformServer(platform, ServingConfig())
            await server.start()
            await _freeze_drainer(server)
            server._drainer = None
            from repro.serving.ops import WriteOp

            future = server._admit(WriteOp("step", {}))
            assert isinstance(future, asyncio.Future)
            await server.close()
            with pytest.raises(ServerClosed):
                await future
            platform.close()

        run(go())


class TestRoutes:
    def test_read_endpoints(self):
        async def go():
            platform = make_platform()
            worker = platform.register_worker(
                "ann",
                HumanFactors(
                    native_languages=frozenset({"en"}),
                    languages={"fr": 0.8},
                    skills={"translation": 0.7},
                    reliability=0.9,
                ),
            )
            platform.step()
            async with PlatformServer(platform, ServingConfig()) as server:
                async with HttpClient(*server.address) as client:
                    health = await client.request("GET", "/healthz")
                    assert health.parsed_json()["status"] == "serving"

                    snapshot = await client.request("GET", "/snapshot")
                    assert snapshot.parsed_json()["workers"] == 1

                    page = await client.request(
                        "GET", f"/workers/{worker.id}/page"
                    )
                    assert page.status == 200
                    assert b"Worker page" in page.body
                    # Render again: now served from the query cache, and the
                    # hits are attributed to this server's read_cache block.
                    await client.request("GET", f"/workers/{worker.id}/page")
                    assert server.stats.read_cache.hits > 0

                    stats = (await client.request("GET", "/stats")).parsed_json()
                    assert stats["serving"]["reads"] >= 4
                    assert stats["read_cache"]["hits"] > 0
                    assert "platform" in stats and "query_cache" in stats

                    missing = await client.request("GET", "/tasks/t1/ui")
                    assert missing.status == 400

                    nowhere = await client.request("GET", "/no/such/route")
                    assert nowhere.status == 404

                    put = await client.request("PUT", "/workers", json_body={})
                    assert put.status == 405
            platform.close()

        run(go())

    def test_write_endpoints_round_trip(self):
        async def go():
            platform = make_platform()
            async with PlatformServer(platform, ServingConfig()) as server:
                async with HttpClient(*server.address) as client:
                    created = await client.request(
                        "POST",
                        "/workers",
                        json_body={"name": "ann", "factors": FACTORS},
                    )
                    body = created.parsed_json()
                    assert created.status == 200 and body["ok"]
                    worker_id = body["result"]["worker_id"]
                    assert platform.workers.get(worker_id).name == "ann"
                    assert body["tick"] >= 1

                    stepped = await client.request(
                        "POST", "/step", json_body={"dt": 1.0}
                    )
                    assert stepped.parsed_json()["ok"]

                    answered = await client.request(
                        "POST",
                        f"/projects/{platform.projects.active()[0].id}/answers",
                        json_body={
                            "predicate": "rate",
                            "key_values": {"item": "i1"},
                            "fill_values": {"verdict": "good"},
                        },
                    )
                    assert answered.parsed_json()["ok"]

                    bad = await client.request("POST", "/workers", json_body={})
                    assert bad.status == 400
                    assert not bad.parsed_json()["ok"]

                    unknown = await client.request(
                        "POST", "/tasks/t1/interest", json_body={}
                    )
                    assert unknown.status == 400  # missing worker_id

                    nowhere = await client.request(
                        "POST", "/no/such/route", json_body={}
                    )
                    assert nowhere.status == 404
            assert server.stats.op_errors == 1
            platform.close()

        run(go())

    def test_form_encoded_write(self):
        async def go():
            platform = make_platform()
            async with PlatformServer(platform, ServingConfig()) as server:
                response = await http_request(
                    *server.address,
                    "POST",
                    "/workers",
                    body=b"name=lee",
                    headers={
                        "Content-Type": "application/x-www-form-urlencoded",
                        "Content-Length": "8",
                    },
                )
                assert response.parsed_json()["ok"]
                assert len(platform.workers) == 1
            platform.close()

        run(go())


class TestAdmission:
    def test_concurrent_writes_coalesce(self):
        """Writes queued while the drainer is busy commit together, at most
        ``max_batch`` per tick."""

        async def go(max_batch: int) -> list[int]:
            platform = make_platform()
            server = PlatformServer(
                platform, ServingConfig(max_batch=max_batch), record_journal=True
            )
            async with server:
                await _freeze_drainer(server)
                address = server.address

                async def register(i: int):
                    return await http_request(
                        address[0],
                        address[1],
                        "POST",
                        "/workers",
                        json_body={"name": f"w{i}", "factors": FACTORS},
                    )

                posts = [asyncio.create_task(register(i)) for i in range(16)]
                while server.stats.admitted < 16:
                    await asyncio.sleep(0.001)
                server._drainer = asyncio.create_task(server._drain_loop())
                responses = await asyncio.gather(*posts)
                assert all(r.parsed_json()["ok"] for r in responses)
            assert server.stats.applied == server.stats.admitted == 16
            assert len(platform.workers) == 16
            platform.close()
            tick_sizes = [
                len(list(group))
                for _, group in itertools.groupby(server.journal, key=lambda e: e[0])
            ]
            assert server.stats.ticks == len(tick_sizes)
            return tick_sizes

        assert run(go(64)) == [16]
        assert run(go(4)) == [4, 4, 4, 4]

    def test_queue_depth_backpressure(self):
        async def go():
            platform = make_platform()
            server = PlatformServer(platform, ServingConfig(queue_depth=2))
            await server.start()
            await _freeze_drainer(server)  # the queue can only grow
            from repro.serving.ops import WriteOp

            assert isinstance(server._admit(WriteOp("step", {})), asyncio.Future)
            assert isinstance(server._admit(WriteOp("step", {})), asyncio.Future)
            rejected = server._admit(WriteOp("step", {}))
            assert rejected.status == 429
            assert rejected.headers["Retry-After"] == str(server.config.retry_after)
            assert server.stats.rejected_depth == 1
            await server.close()
            platform.close()

        run(go())

    def test_round_lag_backpressure(self):
        async def go():
            platform = make_platform()
            server = PlatformServer(
                platform, ServingConfig(max_round_lag=0.001, queue_depth=100)
            )
            await server.start()
            await _freeze_drainer(server)
            from repro.serving.ops import WriteOp

            assert isinstance(server._admit(WriteOp("step", {})), asyncio.Future)
            await asyncio.sleep(0.01)  # queue continuously non-empty
            rejected = server._admit(WriteOp("step", {}))
            assert rejected.status == 429
            assert server.stats.rejected_lag == 1
            await server.close()
            platform.close()

        run(go())

    def test_drain_flushes_queued_writes(self):
        async def go():
            platform = make_platform()
            async with PlatformServer(platform, ServingConfig()) as server:
                address = server.address
                posts = [
                    asyncio.create_task(
                        http_request(
                            address[0],
                            address[1],
                            "POST",
                            "/workers",
                            json_body={"name": f"w{i}", "factors": FACTORS},
                        )
                    )
                    for i in range(4)
                ]
                while server.stats.admitted < 4:  # let the posts hit the queue
                    await asyncio.sleep(0.001)
                await server.drain()
                responses = await asyncio.gather(*posts)
                assert all(r.parsed_json()["ok"] for r in responses)
            assert len(platform.workers) == 4
            platform.close()

        run(go())

    def test_drain_applies_the_write_the_drainer_holds(self):
        """Once ``drain()`` returns, a write the drainer has already taken
        off the queue has been applied, and ``close()`` cannot drop it."""

        async def go():
            platform = make_platform()
            server = PlatformServer(platform, ServingConfig())
            await server.start()
            post = asyncio.create_task(
                http_request(
                    *server.address,
                    "POST",
                    "/workers",
                    json_body={"name": "ann", "factors": FACTORS},
                )
            )
            while server.stats.admitted < 1:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.001)  # the drainer takes the write
            await server.drain()
            assert server.stats.applied == server.stats.admitted
            await server.close()
            response = await post
            assert response.status == 200
            assert len(platform.workers) == 1
            platform.close()

        run(go())


class TestJournalAndStats:
    def test_journal_records_applied_order(self):
        async def go():
            platform = make_platform()
            server = PlatformServer(
                platform, ServingConfig(), record_journal=True
            )
            async with server:
                async with HttpClient(*server.address) as client:
                    for i in range(3):
                        await client.request(
                            "POST",
                            "/workers",
                            json_body={"name": f"w{i}", "factors": FACTORS},
                        )
                    await client.request("POST", "/step", json_body={})
            kinds = [op.kind for _, op in server.journal]
            assert kinds == ["register_worker"] * 3 + ["step"]
            ticks = [tick for tick, _ in server.journal]
            assert ticks == sorted(ticks), "journal must be in applied order"
            platform.close()

        run(go())

    def test_stats_sections_and_collector(self):
        async def go():
            platform = make_platform()
            async with PlatformServer(platform, ServingConfig()) as server:
                await http_request(*server.address, "GET", "/healthz")
                sections = server.stats_sections()
                assert {"serving", "serving_read_cache", "platform"} <= set(
                    sections
                )
                table = format_stats_table(sections)
                assert "serving" in table
                collector = Collector()
                server.collect_stats(collector)
                assert dict(collector.counters)["serving.reads"] == 1
            platform.close()

        run(go())
