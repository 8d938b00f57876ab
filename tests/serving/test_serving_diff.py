"""Randomized differential check of the HTTP serving surface.

The HTTP leg sends the serving write vocabulary to a
:class:`PlatformServer`; the direct leg applies the same ops through
:func:`apply_ops` as library calls.  Dumps, engine snapshots, round deltas
and counters must be **byte-identical**: HTTP decode, admission ordering,
burst coalescing and barrier handling must be invisible.  Sequentially
(one op per tick) the legs are compared after every op; concurrently,
four clients split one stream between interleaved reads, and the server's
admission journal is replayed tick by tick through ``apply_ops``.

The CI ``serving-diff`` job runs this module with
``SERVING_DIFF_EXAMPLES=12``; the local default keeps tier-1 fast.
"""

from __future__ import annotations

import asyncio
import itertools
import os

import oracle
import pytest
from hypothesis import given, settings
from oracle import CYLOG, PLATFORM_KINDS, PlatformLeg

from repro.core import Crowd4U
from repro.serving import PlatformServer, ServingConfig, apply_ops
from repro.serving.http import HttpClient
from repro.serving.ops import OP_KINDS

EXAMPLES = int(os.environ.get("SERVING_DIFF_EXAMPLES", "3"))

pytestmark = pytest.mark.serving_diff

KINDS = tuple(kind for kind in PLATFORM_KINDS if kind in OP_KINDS)

COMPONENTS = ("dump", "snapshots", "round_deltas", "counters")

_TASK_ACTIONS = {
    "declare_interest": "interest",
    "confirm_membership": "confirm",
    "decline_membership": "decline",
    "submit_result": "submit",
    "contribute": "contribute",
}
_PROJECT_ACTIONS = {"supply_answer": "answers", "post_task": "tasks"}


def _route(kind: str, payload: dict) -> tuple[str, dict]:
    """The ``POST`` path and body the server decodes into ``WriteOp(kind,
    payload)``."""
    body = dict(payload)
    if kind in _TASK_ACTIONS:
        return f"/tasks/{body.pop('task_id')}/{_TASK_ACTIONS[kind]}", body
    if kind in _PROJECT_ACTIONS:
        return f"/projects/{body.pop('project_id')}/{_PROJECT_ACTIONS[kind]}", body
    if kind == "update_factors":
        return f"/workers/{body['worker_id']}/factors", body["fields"]
    return {"register_worker": "/workers", "step": "/step"}[kind], body


def _platform(seed: int) -> Crowd4U:
    platform = Crowd4U(seed=seed)
    platform.register_project("survey", "req", CYLOG)
    return platform


async def _client(leg: PlatformLeg, address, ops, index: int, direct=None) -> None:
    """One client: its share of the stream, each write followed by a read
    that must not perturb state.  ``direct`` (one client, so one tick per
    op) takes every op too and must agree after each."""
    reads = ("/healthz", "/snapshot", "/stats")
    async with HttpClient(*address) as client:
        for n, op in enumerate(ops):
            # An op that names nothing sends a write that must fail, and
            # fail identically on replay.
            concrete = leg.resolve(op) or (
                "declare_interest",
                {"worker_id": "w?", "task_id": f"nope{index}-{n}"},
            )
            path, body = _route(*concrete)
            await client.request("POST", path, json_body=body)
            if direct is not None:
                direct.apply(concrete)
                oracle.agree([leg, direct], COMPONENTS, f"after op {n}: {concrete}")
            workers = leg.platform.workers.ids()
            path = reads[n % 3]
            if workers and n % 4 == 0:
                path = f"/workers/{workers[n % len(workers)]}/page"
            assert (await client.request("GET", path)).status == 200


def _serve(seed: int, streams, direct=None) -> tuple[PlatformLeg, PlatformServer]:
    """One client per stream against a journaling server."""
    http = PlatformLeg("http", _platform(seed))
    config = ServingConfig(max_batch=64)
    server = PlatformServer(http.platform, config, record_journal=True)

    async def go():
        async with server:
            await asyncio.gather(
                *(
                    _client(http, server.address, ops, i, direct)
                    for i, ops in enumerate(streams)
                )
            )

    asyncio.run(go())
    return http, server


@given(oracle.op_stream(KINDS, size=24))
@settings(max_examples=EXAMPLES, deadline=None)
def test_sequential_http_matches_direct_calls(ops) -> None:
    _serve(11, [ops], direct=PlatformLeg("direct", _platform(11)))


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_concurrent_http_matches_direct_calls(seed: int) -> None:
    def replay(ops):
        http, server = _serve(seed, [ops[i::4] for i in range(4)])
        direct = PlatformLeg("journal replay", _platform(seed))
        for _, group in itertools.groupby(server.journal, key=lambda entry: entry[0]):
            apply_ops(direct.platform, [op for _, op in group])
        oracle.agree([http, direct], COMPONENTS, f"after journal {server.journal!r}")
        # Every admitted write was applied and journalled.
        assert server.stats.applied == len(server.journal)

    oracle.check(oracle.op_stream(KINDS), replay, seed)
