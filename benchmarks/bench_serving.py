"""E14 — the serving front-end under concurrent load (PR 9).

One :class:`~repro.serving.server.PlatformServer` over one platform, hit
by ``N_CLIENTS`` simulated volunteers on persistent keep-alive
connections.  Two phases:

* **write saturation** — every client concurrently POSTs answers and
  ad-hoc task posts.  The drainer group-commits the flood: each tick
  takes every write queued while the previous tick ran, so the engine
  runs one continuation per project per tick instead of one per request;
  ``coalescing_x`` (admitted writes per tick) is the headline and must
  be >= 10x at full size.
* **cache-fed reads** — every client GETs worker pages and health
  probes.  Between mutations the renders hit the version-keyed query
  cache, measured by the server's attributed ``read_cache`` block.

``sustained_rps`` (all requests over total wall) and ``p99_ms`` are the
trajectory record; the CI smoke gate holds ``sustained_rps`` above a
conservative committed floor.
"""

import asyncio
import time

from repro.config import RuntimeConfig
from repro.core import HumanFactors
from repro.metrics import format_table
from repro.serving import ServingConfig
from repro.serving.http import HttpClient

from fastmode import FAST, pick

N_CLIENTS = pick(1000, 50)
WRITES_PER_CLIENT = pick(4, 3)
READS_PER_CLIENT = pick(4, 3)
SEED_WORKERS = pick(50, 8)
CONNECT_CHUNK = 100  # stagger connects to stay under the accept backlog

CYLOG_SOURCE = """
    open rate(item: text, verdict: text) key (item) asking "Rate {item}".
    item("i1"). item("i2"). item("i3").
    rated(I, V) :- item(I), rate(I, V).
"""


def _factors(i: int) -> HumanFactors:
    return HumanFactors(
        native_languages=frozenset({"en"}),
        languages={"fr": 0.5 + (i % 5) / 10},
        region=("tsukuba", "paris")[i % 2],
        skills={"translation": 0.5},
        reliability=0.9,
    )


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


async def _write_phase(
    client: HttpClient, index: int, project_id: str, latencies: list[float]
) -> None:
    for n in range(WRITES_PER_CLIENT):
        if n % 2 == 0:
            path = f"/projects/{project_id}/answers"
            body = {
                "predicate": "rate",
                "key_values": {"item": f"c{index}-{n}"},
                "fill_values": {"verdict": "good"},
            }
        else:
            path = f"/projects/{project_id}/tasks"
            body = {"instruction": f"adhoc-{index}-{n}"}
        start = time.perf_counter()
        response = await client.request("POST", path, json_body=body)
        latencies.append(time.perf_counter() - start)
        assert response.status == 200, response.body


async def _read_phase(
    client: HttpClient, index: int, worker_ids: list[str], latencies: list[float]
) -> None:
    for n in range(READS_PER_CLIENT):
        worker_id = worker_ids[(index + n) % len(worker_ids)]
        path = f"/workers/{worker_id}/page" if n % 2 == 0 else "/healthz"
        start = time.perf_counter()
        response = await client.request("GET", path)
        latencies.append(time.perf_counter() - start)
        assert response.status == 200, response.body


async def _run() -> dict:
    config = RuntimeConfig(
        serving=ServingConfig(
            max_batch=512,
            queue_depth=max(1024, N_CLIENTS * WRITES_PER_CLIENT),
            max_round_lag=30.0,
        )
    )
    server = config.build_server()
    platform = server.platform
    project_id = platform.register_project("survey", "req", CYLOG_SOURCE).id
    worker_ids = [
        platform.register_worker(f"w{i}", _factors(i)).id
        for i in range(SEED_WORKERS)
    ]
    platform.step()

    write_lat: list[float] = []
    read_lat: list[float] = []
    async with server:
        clients = [HttpClient(*server.address) for _ in range(N_CLIENTS)]
        try:
            for base in range(0, N_CLIENTS, CONNECT_CHUNK):
                await asyncio.gather(
                    *(c.connect() for c in clients[base:base + CONNECT_CHUNK])
                )

            start = time.perf_counter()
            await asyncio.gather(
                *(
                    _write_phase(client, i, project_id, write_lat)
                    for i, client in enumerate(clients)
                )
            )
            write_wall = time.perf_counter() - start

            start = time.perf_counter()
            await asyncio.gather(
                *(
                    _read_phase(client, i, worker_ids, read_lat)
                    for i, client in enumerate(clients)
                )
            )
            read_wall = time.perf_counter() - start
        finally:
            await asyncio.gather(*(c.close() for c in clients))

    stats = server.stats
    assert stats.applied == stats.admitted == len(write_lat)
    assert stats.rejected == 0, stats.as_dict()
    cache = stats.read_cache
    requests = len(write_lat) + len(read_lat)
    total_wall = write_wall + read_wall
    record = {
        "clients": N_CLIENTS,
        "requests": requests,
        "sustained_rps": round(requests / total_wall, 1),
        "p99_ms": round(_percentile(write_lat + read_lat, 0.99) * 1000, 2),
        "write": {
            "requests": len(write_lat),
            "rps": round(len(write_lat) / write_wall, 1),
            "p50_ms": round(_percentile(write_lat, 0.50) * 1000, 2),
            "p99_ms": round(_percentile(write_lat, 0.99) * 1000, 2),
            "ticks": stats.ticks,
            "coalescing_x": round(stats.coalescing, 2),
            "max_queue_depth": stats.max_queue_depth,
            "tick_latency_max_ms": round(stats.tick_latency_max_s * 1000, 2),
        },
        "read": {
            "requests": len(read_lat),
            "rps": round(len(read_lat) / read_wall, 1),
            "p50_ms": round(_percentile(read_lat, 0.50) * 1000, 2),
            "p99_ms": round(_percentile(read_lat, 0.99) * 1000, 2),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_hit_rate": round(
                cache.hits / cache.fetches if cache.fetches else 0.0, 3
            ),
        },
        "platform_tasks": platform.pool.counts(),
    }
    platform.close()
    return record


def test_e14_serving_front_end(emit, emit_bench_json):
    record = asyncio.run(_run())

    emit_bench_json("E14", record)
    write, read = record["write"], record["read"]
    emit(format_table(
        ("phase", "requests", "rps", "p50 ms", "p99 ms", "detail"),
        [
            (
                "write", write["requests"], write["rps"], write["p50_ms"],
                write["p99_ms"],
                f"{write['ticks']} ticks, {write['coalescing_x']}x coalesced",
            ),
            (
                "read", read["requests"], read["rps"], read["p50_ms"],
                read["p99_ms"],
                f"cache hit rate {read['cache_hit_rate']:.0%}",
            ),
        ],
        title=(
            f"E14 — {N_CLIENTS} concurrent clients over HTTP: "
            f"{record['sustained_rps']} req/s sustained, "
            f"p99 {record['p99_ms']} ms"
        ),
    ))

    # The cache-fed read path must actually be cache-fed.
    assert read["cache_hits"] > 0
    if not FAST:
        # The batching win at saturation: >= 10 admitted writes per
        # engine continuation (acceptance criterion).
        assert write["coalescing_x"] >= 10.0, record
