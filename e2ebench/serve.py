"""Server launcher for the ``submit`` workload.

Runs in its own process: builds the WAL-backed deployment, starts a
:class:`~repro.serving.PlatformServer` through
``RuntimeConfig.build_server`` and prints ``{"port": ...}`` when ready.
On ``stop`` (a line on stdin) it drains and closes the server, then
prints one JSON line with the end-state digest, the work counters at
ready and at end, peak memory and, when traced, the spans.

Usage: ``python3 serve.py --wal DIR [--trace]``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import threading


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--wal", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import layers
    from measure import peak_rss_mb

    tracer = None
    if args.trace:
        tracer = layers.new_tracer()
        layers.install(tracer)
    wal = layers.WalMeter(args.wal)
    wal.install()

    from deploy import serving_platform
    from repro.storage import dump_canonical

    platform, _ = serving_platform(args.wal)
    server = platform.config.build_server(platform)
    ready = layers.counters(platform, server, wal)
    setup_trace = tracer.take() if tracer else None

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        await server.start()
        print(json.dumps({"port": server.address[1]}), flush=True)
        threading.Thread(
            target=lambda: (sys.stdin.readline(), loop.call_soon_threadsafe(stop.set)),
            daemon=True,
        ).start()
        await stop.wait()
        await server.drain()
        await server.close()

    asyncio.run(serve())
    end = layers.counters(platform, server, wal)
    rss = peak_rss_mb()
    result = {
        "digest": hashlib.sha256(dump_canonical(platform.db)).hexdigest(),
        "counters": {"ready": ready, "end": end},
        "peak_rss_mb": rss,
        "trace": (
            {"setup": setup_trace, "timed": tracer.take()} if tracer else None
        ),
    }
    platform.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
