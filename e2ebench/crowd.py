"""``crowd`` replays in their own processes: a delta-stream simulation.

Builds the 5k-worker moderation deployment (:func:`deploy.crowd_platform`)
and prints ``READY``.  Then each ``play CPU`` line on stdin forks a child
that plays the script from that ready state on core ``CPU``, so every
replay starts from the same state without paying for the set-up again.
The script is a fixed number of ticks.  Each tick is
one *round*: the benchmark's injector streams new items in and
evaluates them (a *write*; every ``STORM_EVERY`` ticks it also retracts
the last ``STORM_SPAN`` ticks' items in one storm, a second write) and
the simulation ticks.  After each round the requester polls the project
(a *read*): the requests still waiting for answers and the verdicts
derived so far, both CyLog reads, so forms and the query cache stay idle.
Each child prints one JSON line with latencies, counters, digests and
spans.  ``stop`` (or the end of stdin) ends the process.

Usage: ``python3 crowd.py --seed N --ticks T [--trace]``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import signal
import sys
import time
import traceback

ITEMS_PER_TICK = 4
STORM_EVERY = 12
STORM_SPAN = 6
REVISIT_PERIOD = 25.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ticks", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import layers

    tracer = None
    if args.trace:
        tracer = layers.new_tracer()
        layers.install(tracer)

    from deploy import CROWD_WORKERS, crowd_platform
    from repro.apps.common import pack_behavior
    from repro.sim import SimulationDriver

    seed = args.seed
    platform, project_id = crowd_platform()
    processor = platform.processor(project_id)
    driver = SimulationDriver(
        platform,
        behavior=pack_behavior(CROWD_WORKERS, seed),
        seed=seed,
        revisit_period=REVISIT_PERIOD,
    )
    ready = layers.counters(platform)
    setup_trace = tracer.take() if tracer else None
    print("READY", flush=True)

    for command in sys.stdin:
        if not command.startswith("play "):
            break
        child = os.fork()
        if child == 0:
            try:
                # A child must not outlive this process.
                ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                os.sched_setaffinity(0, {int(command.split()[1])})
                print(json.dumps({
                    **play(args.ticks, seed, platform, processor, driver, tracer),
                    "counters": {"ready": ready, "end": layers.counters(platform)},
                    "trace": (
                        {"setup": setup_trace, "timed": tracer.take()}
                        if tracer else None
                    ),
                }), flush=True)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(child, 0)
        if status:
            return 1
    platform.close()
    return 0


def play(ticks: int, seed: int, platform, processor, driver, tracer) -> dict:
    """Play the script's rounds; their latencies, end state and memory."""
    from measure import peak_rss_mb
    from repro.storage import dump_canonical

    rng = random.Random(f"e2ebench/crowd/{seed}")
    clock = time.perf_counter
    latency: dict[str, list[float]] = {"round": [], "write": [], "read": []}
    per_op: list[float] = []
    unattributed: list[float] = []
    injected: list[list[str]] = []
    for tick in range(ticks):
        covered = tracer.root_total if tracer else 0.0
        t0 = clock()
        batch = [
            f"item-{tick:04d}-{i:02d}"
            for i in range(ITEMS_PER_TICK + rng.randint(-1, 1))
        ]
        injected.append(batch)
        # The ingest is committed once evaluated: the write includes the
        # incremental run that derives its demand.
        processor.add_facts("incoming", [(item,) for item in batch])
        processor.run()
        t1 = clock()
        latency["write"].append(t1 - t0)
        if tick and tick % STORM_EVERY == 0:
            storm = [item for items in injected[-STORM_SPAN:] for item in items]
            processor.retract_facts("incoming", [(item,) for item in storm])
            t2 = clock()
            latency["write"].append(t2 - t1)
        driver.tick()
        t3 = clock()
        latency["round"].append(t3 - t0)
        if tracer:
            unattributed.append((t3 - t0) - (tracer.root_total - covered))
        processor.pending_requests()
        processor.sorted_facts("verdicts")
        t4 = clock()
        latency["read"].append(t4 - t3)
        per_op.append(t4 - t0)

    report = {
        k: v for k, v in vars(driver.report).items() if k != "qualities"
    }
    report["qualities"] = hashlib.sha256(
        repr(driver.report.qualities).encode()
    ).hexdigest()
    return {
        "latency": latency,
        "per_op": per_op,
        "ops": ticks,
        "digest": hashlib.sha256(dump_canonical(platform.db)).hexdigest(),
        "report": report,
        "peak_rss_mb": peak_rss_mb(),
        "unattributed": unattributed,
    }


if __name__ == "__main__":
    sys.exit(main())
