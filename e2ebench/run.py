"""End-to-end benchmark of the Crowd4U reproduction.

Two workloads drive the platform's public surfaces from outside:

* ``crowd``  — a 5k-worker delta-stream moderation simulation in its
  own process (rounds = inject + ``SimulationDriver.tick``);
* ``submit`` — a write-dominated script against a WAL-backed
  ``PlatformServer`` in its own process, over one keep-alive connection.

Every run plays fixed seeded scripts to completion: the same seed and
``--seconds`` give the same ops, in the same order, on every run.  A
run plays each of its scripts ``REPLAYS`` times (``crowd`` two scripts
at once, one per core; ``submit`` one server at a time).  Each op does
the same work in every replay of its script, so each op's time is its
best over those replays, and latency percentiles and throughput are
taken over those best times.
``--trace 1`` plays the first script traced, untraced under another
``PYTHONHASHSEED``, and untraced again under the traced process's hash
seed, and reports the per-layer metrics instead.  Output checks: the
server's end-state digest must equal the in-process replay of its
script, and processes that play one script under one hash seed must end
in identical digests (and, for crowd, simulation reports); a mismatch
fails the run.

Usage::

    python3 e2ebench/run.py --workload submit --seed 1 --seconds 40 --trace 0

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"

WORKLOADS = ("crowd", "submit")
#: Untraced replays of each script per run, under PYTHONHASHSEED 0.  The
#: host slows its cores one at a time, in spells of seconds to tens of
#: seconds, so an op's time in one replay may be taken in a slow spell;
#: its best over replays seconds apart and on both cores is slow only if
#: all of them were.  Replays of one script must also end in identical
#: states, so every run checks that a script repeats exactly.
#: A ``crowd`` program process sets up once and forks one child per
#: replay; a ``submit`` replay is a fresh server process, with this
#: process as its client on the other core, the two swapping cores from
#: replay to replay.
REPLAYS = {"crowd": 8, "submit": 6}
#: ``crowd`` scripts per run, played ``CROWD_LANES`` at once, one per
#: core, swapping cores from replay to replay.  A script's reads change
#: cost up to twofold in phases of ten-odd ticks, at levels set by its
#: seed, so four scripts halve how much one seed's phases move
#: ``read_p50_ms``.
CROWD_SCRIPTS = 4
CROWD_LANES = 2
#: Script length per second of ``--seconds``, over all replays of one
#: script (a fixed calibration, so one ``--seconds`` value always means
#: one script).
CROWD_TICKS_PER_SECOND = 8.5
OPS_PER_SECOND = {"submit": 110.0}
#: Shortest ``--seconds`` whose scripts give every class a tail (at
#: least 20 best times per op class).
MIN_SECONDS = 12
#: A program process still running after this long is killed, so a hung
#: process fails the run well inside its time limit.
PROCESS_TIMEOUT_S = 100.0

CLASSES = ("round", "read", "write")


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


CPUS = sorted(os.sched_getaffinity(0))


def _env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Program:
    """One program process; killed and reaped however the run ends, and
    killed by a watchdog after :data:`PROCESS_TIMEOUT_S`."""

    def __init__(self, argv: list[str], hash_seed: int, cpu: int) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_env(hash_seed),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        os.sched_setaffinity(self.proc.pid, {cpu})

    def line(self) -> str:
        raw = self.proc.stdout.readline()
        if not raw:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
            raise CheckFailed(
                f"program exited with code {self.proc.returncode} "
                "before reporting"
            )
        return raw.decode()

    def send(self, command: str) -> None:
        self.proc.stdin.write(f"{command}\n".encode())
        self.proc.stdin.flush()

    def finish(self) -> None:
        self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise CheckFailed(f"program exited with code {self.proc.returncode}")

    def __enter__(self) -> "Program":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def run_json(argv: list[str], hash_seed: int) -> dict[str, Any]:
    """Run one benchmark helper to completion; its stdout is JSON."""
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(hash_seed),
        stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise CheckFailed(f"{Path(argv[0]).name} exited with code {done.returncode}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# crowd
# ---------------------------------------------------------------------------

def crowd_reps(
    seed: int,
    ticks: int,
    hash_seed: int,
    trace: bool,
    cpus: list[int],
    barrier: threading.Barrier | None = None,
) -> list[dict]:
    """One crowd program process: set up once, then one replay per entry
    of ``cpus``, on that core, each after every lane reached ``barrier``."""
    argv = [str(HERE / "crowd.py"), "--seed", str(seed), "--ticks", str(ticks)]
    results = []
    try:
        with Program(argv + (["--trace"] if trace else []), hash_seed, cpus[0]) as program:
            if program.line().strip() != "READY":
                raise CheckFailed("crowd program did not report READY")
            setup_s = time.perf_counter() - program.started
            for cpu in cpus:
                if barrier is not None:
                    barrier.wait(PROCESS_TIMEOUT_S)
                program.send(f"play {cpu}")
                results.append(json.loads(program.line()))
            program.send("stop")
            program.finish()
    except BaseException:
        if barrier is not None:
            barrier.abort()
        raise
    for result in results:
        result.update(
            setup_s=setup_s,
            failed=0,
            script=seed,
            hash_seed=hash_seed,
            state=(result["digest"], json.dumps(result["report"], sort_keys=True)),
        )
    return results


def crowd_run(seed: int, ticks: int, trace: bool) -> list[dict]:
    first = seed * CROWD_SCRIPTS
    if trace:
        return [
            result
            for hash_seed, traced in ((0, True), (1, False), (0, False))
            for result in crowd_reps(first, ticks, hash_seed, traced, [CPUS[-1]])
        ]
    from concurrent.futures import ThreadPoolExecutor

    lanes = min(len(CPUS), CROWD_LANES)
    results: list[dict] = []
    for slot in range(0, CROWD_SCRIPTS, lanes):
        barrier = threading.Barrier(lanes)

        def lane(index: int) -> list[dict]:
            cpus = [CPUS[(index + r) % lanes] for r in range(REPLAYS["crowd"])]
            return crowd_reps(first + slot + index, ticks, 0, False, cpus, barrier)

        with ThreadPoolExecutor(lanes) as pool:
            for replays in pool.map(lane, range(lanes)):
                results.extend(replays)
    return results


# ---------------------------------------------------------------------------
# submit
# ---------------------------------------------------------------------------

def server_script(
    seed: int, n_ops: int, hash_seeds: list[int]
) -> tuple[list[dict], dict[int, str]]:
    """The fixed script (generated under PYTHONHASHSEED 0, so one seed
    means one script anywhere) and its replay digest under each of
    ``hash_seeds``."""
    helper = str(HERE / "script.py")
    generated = run_json(
        [helper, "generate", "--seed", str(seed), "--ops", str(n_ops)],
        hash_seed=0,
    )
    path = WORK / f"script-{seed}.json"
    path.write_text(json.dumps(generated), encoding="utf-8")
    digests = {0: generated["digest"]}
    for hash_seed in hash_seeds:
        if hash_seed not in digests:
            digests[hash_seed] = run_json(
                [helper, "replay", "--script", str(path)],
                hash_seed,
            )["digest"]
    return generated["ops"], digests


def encode(op: dict) -> bytes:
    """One script op as the bytes of an HTTP/1.1 keep-alive request."""
    head = f"{op['method']} {op['path']} HTTP/1.1\r\nHost: bench\r\n"
    if op["body"] is None:
        return (head + "\r\n").encode()
    body = json.dumps(op["body"]).encode()
    return (
        head + "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class Connection:
    """One keep-alive connection issuing pre-encoded requests one at a
    time.  It does as little as it can between send and receive, so a
    latency is mostly the server's."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def _more(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise CheckFailed("server closed the connection")
        self.buffer += chunk

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; its status and body."""
        self.sock.sendall(raw)
        while (end := self.buffer.find(b"\r\n\r\n")) < 0:
            self._more()
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        start = end + 4
        while len(self.buffer) < start + length:
            self._more()
        body = self.buffer[start:start + length]
        self.buffer = self.buffer[start + length:]
        return int(head[0].split()[1]), body

    def close(self) -> None:
        self.sock.close()


def server_rep(
    seed: int,
    ops: list[dict],
    digests: dict[int, str],
    hash_seed: int,
    trace: bool,
    cpu: int,
) -> dict:
    wal = WORK / "wal"
    shutil.rmtree(wal, ignore_errors=True)
    argv = [str(HERE / "serve.py"), "--wal", str(wal)]
    requests = [encode(op) for op in ops]
    with Program(argv + (["--trace"] if trace else []), hash_seed, cpu) as program:
        port = json.loads(program.line())["port"]
        setup_s = time.perf_counter() - program.started
        latency: dict[str, list[float]] = {cls: [] for cls in CLASSES}
        per_op: list[float] = []
        failed = 0
        conn = Connection(port)
        clock = time.perf_counter
        try:
            for op, raw in zip(ops, requests):
                t0 = clock()
                status, payload = conn.request(raw)
                elapsed = clock() - t0
                latency[op["cls"]].append(elapsed)
                per_op.append(elapsed)
                if status >= 400 or not payload:
                    failed += 1
        finally:
            conn.close()
        program.send("stop")
        result = json.loads(program.line())
        program.finish()
    shutil.rmtree(wal, ignore_errors=True)
    result.update(
        setup_s=setup_s,
        latency=latency,
        per_op=per_op,
        op_classes=[op["cls"] for op in ops],
        ops=len(ops),
        failed=failed,
        script=seed,
        hash_seed=hash_seed,
        state=(result["digest"],),
    )
    if result["digest"] != digests[hash_seed]:
        raise CheckFailed(
            "server end state differs from the in-process apply_ops replay "
            f"(PYTHONHASHSEED={hash_seed})"
        )
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Replays of one script do the same work op by op, so each op's
    time is its best over the replays (:func:`measure.best_of`):
    percentiles and throughput are taken over the best times of every
    script's ops.  ``setup_s`` and ``peak_rss_mb`` are medians over the
    processes."""
    from measure import best_of, summarize

    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = []

    def put(name: str, value: float, unit: str, note: str) -> None:
        metrics[name] = (value, unit)
        lines.append(f"  {name:<20} {value:>12.4f} {unit:<5} {note}")

    n = len(reps)
    scripts: dict[int, list[dict]] = {}
    for r in reps:
        scripts.setdefault(r["script"], []).append(r)
    k = f"best of {n // len(scripts)} replays each"

    def best(key) -> list[float]:
        return [
            sample
            for replays in scripts.values()
            for sample in best_of([key(r) for r in replays])
        ]

    # A crowd program process sets up once for all its replays.
    setups = list(dict.fromkeys((r["script"], r["setup_s"]) for r in reps))
    put("setup_s", statistics.median(s for _, s in setups), "s",
        f"median of {len(setups)} set-ups")
    put("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in reps), "MB",
        f"median of {n} processes")
    best_ops = best(lambda r: r["per_op"])
    put("throughput_per_s", len(best_ops) / sum(best_ops), "1/s",
        f"{len(best_ops)} ops, {k}")
    for cls in CLASSES:
        stats = summarize(best(lambda r: r["latency"][cls]))
        count = f"n={stats.n}, {k}"
        if stats.tail is None:
            raise CheckFailed(f"{cls}: {stats.n} samples cannot give a tail")
        put(f"{cls}_p50_ms", stats.p50 * 1000, "ms", count)
        put(f"{cls}_tail_ms", stats.tail * 1000, "ms", f"p{stats.tail_pct}, {count}")
    return metrics, lines


def server_run(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """The server processes one at a time, alternating cores."""
    if trace:
        # The untraced processes give the tracing overhead; the one under
        # another hash seed shows hash-dependent state and work, and the
        # last repeats the traced process's hash seed, so the traced end
        # state is checked like every other.
        processes = [(seed, 0, True), (seed, 1, False), (seed, 0, False)]
    else:
        processes = [(seed, 0, False)] * REPLAYS[workload]
    n_ops = max(1, round(seconds * OPS_PER_SECOND[workload] / REPLAYS[workload]))
    ops, digests = server_script(
        seed, n_ops, sorted({hash_seed for _, hash_seed, _ in processes})
    )
    results = []
    for number, (script, hash_seed, traced) in enumerate(processes):
        os.sched_setaffinity(0, {CPUS[number % len(CPUS)]})
        cpu = CPUS[(number + 1) % len(CPUS)]
        results.append(server_rep(script, ops, digests, hash_seed, traced, cpu))
    return results


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from measure import counter_delta, drifted

    WORK.mkdir(exist_ok=True)
    if workload == "crowd":
        ticks = max(1, round(seconds * CROWD_TICKS_PER_SECOND / REPLAYS["crowd"]))
        reps = crowd_run(seed, ticks, trace)
    else:
        reps = server_run(workload, seed, seconds, trace)
    # Per script: end states by hash seed, and counter deltas.
    states: dict[int, dict[int, set]] = {}
    deltas: dict[int, list[dict]] = {}
    for r in reps:
        by_hash = states.setdefault(r["script"], {})
        by_hash.setdefault(r["hash_seed"], set()).add(r["state"])
        deltas.setdefault(r["script"], []).append(
            counter_delta(r["counters"]["ready"], r["counters"]["end"])
        )
    if any(len(group) > 1 for by_hash in states.values() for group in by_hash.values()):
        raise CheckFailed("runs of one script and hash seed ended in different states")
    # Drift across hash seeds is reported, not failed: it is the program's
    # iteration order leaking into its state (or its work).
    hash_dependent = any(
        len({next(iter(group)) for group in by_hash.values()}) > 1
        for by_hash in states.values()
    )
    drift = sorted({name for runs in deltas.values() for name in drifted(runs)})
    untraced = [r for r in reps if not r.get("trace")]
    if trace:
        import layers

        traced = reps[0]
        metrics = layers.per_layer(
            traced, deltas[traced["script"]][0], untraced, drift, hash_dependent
        )
        lines = [
            f"  {name:<44} {value:>14.4f} {unit}"
            for name, (value, unit) in metrics.items()
        ]
    else:
        metrics, lines = end_to_end(untraced)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"{workload}: seed {seed}, scripts {', '.join(map(str, states))},"
          f" {len(reps)} runs of {reps[0]['ops']} ops"
          f" ({'traced' if trace else 'untraced'})")
    print("\n".join(lines))
    print(f"  failed_ratio {failed / attempted:.4f} ({failed} of {attempted} ops)")
    if drift:
        print(f"  counters drifted across runs of one script: {', '.join(drift)}",
              file=sys.stderr)
    if hash_dependent:
        print("  end state depends on PYTHONHASHSEED", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < MIN_SECONDS:
        parser.error(f"--seconds must be at least {MIN_SECONDS}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"e2ebench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
