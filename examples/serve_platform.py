"""Serve a live Crowd4U platform over HTTP and drive it with clients.

Builds a small deployment, starts the asyncio serving front-end on an
ephemeral port, and plays both sides of the wire:

* a burst of volunteers registering and answering **concurrently** —
  coalesced by the admission queue into a handful of engine ticks,
* repeated worker-page loads — served from the version-keyed query
  cache, with the hits attributed to the server's own stats block,
* one ``/step`` barrier and a final ``/stats`` read.

Run:  python examples/serve_platform.py
"""

import asyncio

from repro import RuntimeConfig, ServingConfig
from repro.metrics import format_stats_table
from repro.serving.http import HttpClient

CYLOG_SOURCE = """
    open rate(item: text, verdict: text) key (item) asking "Rate {item}".
    item("i1"). item("i2"). item("i3").
    rated(I, V) :- item(I), rate(I, V).
"""

FACTORS = {
    "native_languages": ["en"],
    "languages": {"fr": 0.8},
    "skills": {"translation": 0.7},
    "reliability": 0.9,
}


async def volunteer(address, index: int) -> str:
    """One volunteer: register, answer an item, read the own page."""
    async with HttpClient(*address) as client:
        created = await client.request(
            "POST",
            "/workers",
            json_body={"name": f"vol{index}", "factors": FACTORS},
        )
        worker_id = created.parsed_json()["result"]["worker_id"]
        await client.request(
            "POST",
            "/projects/proj0000/answers",
            json_body={
                "predicate": "rate",
                "key_values": {"item": f"i{index % 3 + 1}"},
                "fill_values": {"verdict": ("good", "bad")[index % 2]},
            },
        )
        page = await client.request("GET", f"/workers/{worker_id}/page")
        assert page.status == 200
        return worker_id


async def main() -> None:
    config = RuntimeConfig(serving=ServingConfig())
    server = config.build_server()
    server.platform.register_project("survey", "req", CYLOG_SOURCE)

    async with server:
        address = server.address
        print(f"serving on http://{address[0]}:{address[1]}")

        # Twelve volunteers at once: writes queued while a tick runs
        # commit together in the next one.
        worker_ids = await asyncio.gather(
            *(volunteer(address, i) for i in range(12))
        )
        print(f"registered {len(worker_ids)} volunteers over HTTP")

        async with HttpClient(*address) as client:
            stepped = await client.request("POST", "/step", json_body={"dt": 1.0})
            print(f"platform round over HTTP: {stepped.parsed_json()['result']}")

            # Warm page loads are cache-fed; the server attributes them.
            for worker_id in worker_ids[:4]:
                await client.request("GET", f"/workers/{worker_id}/page")
            health = await client.request("GET", "/healthz")
            print(f"health: {health.parsed_json()}")

    print()
    print(format_stats_table(server.stats_sections(), title="serving stats"))
    coalescing = server.stats.coalescing
    print(f"\ncoalescing: {server.stats.admitted} writes in "
          f"{server.stats.ticks} ticks ({coalescing:.1f}x)")
    server.platform.close()


if __name__ == "__main__":
    asyncio.run(main())
