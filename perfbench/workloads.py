"""The serving workloads.

Every workload drives the public API of ``repro.server``,
``repro.client`` or ``repro.cluster`` from the same process and asyncio
loop as the servers it starts; wire traffic crosses the loopback
interface.  Every gateway routes with ``engine="bnb"`` on one plane
with ``batch_window=64``.  All destinations and arrival times come
from the seed and are generated before setup and timing; closed-loop
callers cycle through a fixed pool of seeded bursts.

* ``bulk-inproc`` — closed loop, 4 callers of in-process
  ``AsyncGateway.send_batch``, 8192-word bursts of 128 uniform
  permutations at m=6 with 256-deep VOQs.  Full frames, no wire: VOQ
  admission, the scheduler and resolution dominate.  Four bursts offer
  32 768 words against 16 384 VOQ slots, so the opening bursts are
  rejected and wait out the gateway's retry hint inside the timed
  window.
* ``bulk-wire`` — the same gateway behind ``GatewayServer``, one binary
  ``GatewayClient`` connection with 4 requests in flight of 2048-word
  bursts, which fit the VOQs: adds framing, op dispatch and client cost
  per request and skips the retry path.
* ``words-open`` — open loop of seeded Poisson arrivals at 500
  words/s, one ``GatewayClient.send`` per word on one connection, m=8
  with 32-deep VOQs, Zipf(1.1) destinations and two tenants
  (``gold:8``, ``bronze:1``) offering half the words each.  Frames are
  nearly empty: per-message framing, single-word admission, the head
  scan over 256 queues, idle completion, tenant round-robin and
  receipt futures carry the cost.  Latency counts from the due time.
  Every gateway tick routes a whole 256-line frame (about 1 ms of
  kernel time here) however few words it carries, so from about 1000
  words/s the loop never idles and CPU per word only measures the
  offered rate; at 500 words/s it idles about two thirds of the time.
  Its tail on a shared host follows host stalls (run-to-run spread
  0.2-0.4), so ``BENCHMARK.json`` leaves it out; run it by name.
* ``cluster-bulk`` — a ``ClusterClient`` over two in-process
  ``LocalNode`` gateways (m=6 each, global N=128), 4 in flight of
  4096-word global-permutation bursts over two node connections, no
  node killed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Awaitable, Callable, Dict, List, Sequence

import numpy as np

from repro.exceptions import ReproError

from gate import Gate

#: Gateway settings shared by every workload.
ENGINE = "bnb"
PLANES = 1
BATCH_WINDOW = 64
#: Server-side re-admission rounds per bulk request (the wire's
#: ``retry: true`` default); words still rejected after it fail.
RETRY_ROUNDS = 16
#: Closed-loop callers, or requests in flight on one connection.
IN_FLIGHT = 4
#: Seeded bursts a closed-loop workload cycles through.
BURST_POOL = 16
#: Frames of each workload checked against the crossbar before timing.
ORACLE_FRAMES = 64
#: The open-loop generator fails the run when its last arrival is
#: issued later than this share of the window behind schedule.
MAX_FINAL_LATE_SHARE = 0.05


@dataclasses.dataclass
class Outcome:
    """What the load generator saw during the timed window."""

    offered: int = 0
    delivered: int = 0
    failed: int = 0
    #: Per-request latency in seconds (a burst, or one open-loop word),
    #: and the ``perf_counter`` time each request completed.
    latencies: List[float] = dataclasses.field(default_factory=list)
    completed: List[float] = dataclasses.field(default_factory=list)
    #: Open loop only: seconds each arrival was issued after its due time.
    late: List[float] = dataclasses.field(default_factory=list)
    #: Cluster only: client rounds per burst and words per node.
    rounds: List[int] = dataclasses.field(default_factory=list)
    node_words: Dict[str, int] = dataclasses.field(default_factory=dict)
    errors: Dict[str, int] = dataclasses.field(default_factory=dict)

    def burst_done(self, size: int, delivered: int, start: float) -> None:
        now = time.perf_counter()
        self.delivered += delivered
        self.failed += size - delivered
        self.latencies.append(now - start)
        self.completed.append(now)

    def error(self, size: int, error: Exception) -> None:
        self.failed += size
        kind = type(error).__name__
        self.errors[kind] = self.errors.get(kind, 0) + 1


def permutation_bursts(
    rng: np.random.Generator, n: int, frames: int, count: int
) -> List[np.ndarray]:
    """*count* bursts, each *frames* uniform permutations of ``range(n)``."""
    return [
        np.argsort(rng.random((frames, n)), axis=1).reshape(-1)
        for _ in range(count)
    ]


def _gateway_config(m: int, queue_capacity: int, **extra: Any):
    from repro.server import GatewayConfig

    return GatewayConfig(
        m=m,
        planes=PLANES,
        queue_capacity=queue_capacity,
        engine=ENGINE,
        batch_window=BATCH_WINDOW,
        **extra,
    )


async def closed_loop(
    bursts: Sequence[np.ndarray],
    deadline: float,
    send: Callable[[np.ndarray], Awaitable[int]],
    out: Outcome,
) -> None:
    """:data:`IN_FLIGHT` callers each send their next burst when the
    last one returns, until *deadline*; ``send`` returns how many of the
    burst's words were delivered."""

    async def caller(first: int) -> None:
        index = first
        while time.perf_counter() < deadline:
            burst = bursts[index % len(bursts)]
            index += IN_FLIGHT
            out.offered += burst.size
            start = time.perf_counter()
            try:
                delivered = await send(burst)
            except ReproError as error:
                out.error(burst.size, error)
                continue
            out.burst_done(burst.size, delivered, start)

    await asyncio.gather(*(caller(k) for k in range(IN_FLIGHT)))


async def open_loop(
    offsets: Sequence[float],
    fire: Callable[[int], Awaitable[bool]],
    out: Outcome,
) -> None:
    """Start ``fire(i)`` at ``offsets[i]`` seconds from now, whether or
    not earlier words have finished.

    For every word ``fire`` reports delivered, records in *out* the
    seconds from its due time to completion; for every word, the
    seconds it was issued after its due time.  Timing from the due time
    charges a stall of the loop to every word it delays.
    """
    tasks = set()
    start = time.perf_counter()

    async def one(index: int, due: float) -> None:
        if await fire(index):
            now = time.perf_counter()
            out.latencies.append(now - due)
            out.completed.append(now)

    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out.late.append(max(0.0, time.perf_counter() - due))
        task = asyncio.ensure_future(one(index, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)


class Workload:
    """Inputs, set-up, load and teardown of one workload."""

    name = ""
    m = 6
    #: Tail percentile the sample count supports at the benchmark's
    #: run length; a run reports min(tail_q, tail_quantile(samples)).
    tail_q = 0.99
    #: Closed-loop callers wait for each reply, so the host's speed sets
    #: their rate; an open loop's rate is set by its schedule.
    closed_loop = True

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)
        self.gateways: List[Any] = []

    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    def oracle_frames(self) -> np.ndarray:
        """The first frames the gateways will route, as full
        permutations of their local lines."""
        raise NotImplementedError

    async def drive(self, out: Outcome, gate: Gate, deadline: float) -> None:
        """Offer load until *deadline* (a ``perf_counter`` time), then
        wait for every request in flight."""
        raise NotImplementedError


class BulkInproc(Workload):
    name = "bulk-inproc"
    m = 6
    # About 1200 requests at 30 s straddle p99's 902-sample floor, and
    # the ~1 % of bursts the retry hint holds for seconds sit right at
    # p99, so the tail is pinned to p95.
    tail_q = 0.95
    frames_per_burst = 128
    queue_capacity = 256

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.bursts = permutation_bursts(
            self.rng, 1 << self.m, self.frames_per_burst, BURST_POOL
        )

    async def setup(self) -> None:
        from repro.server import AsyncGateway

        self.gateway = await AsyncGateway(
            _gateway_config(self.m, self.queue_capacity)
        ).start()
        self.gateways = [self.gateway]

    async def teardown(self) -> None:
        await self.gateway.stop(drain=True)

    def oracle_frames(self) -> np.ndarray:
        return self.bursts[0].reshape(-1, 1 << self.m)[:ORACLE_FRAMES]

    async def _send(self, burst: np.ndarray) -> int:
        result = await self.gateway.send_batch(
            burst, retry_attempts=RETRY_ROUNDS
        )
        return result.delivered

    async def drive(self, out: Outcome, gate: Gate, deadline: float) -> None:
        await closed_loop(self.bursts, deadline, self._send, out)


class BulkWire(BulkInproc):
    name = "bulk-wire"
    tail_q = 0.99
    frames_per_burst = 32

    async def setup(self) -> None:
        from repro.client import GatewayClient
        from repro.server import GatewayServer

        await super().setup()
        self.server = await GatewayServer(self.gateway, port=0).start()
        self.client = await GatewayClient(
            "127.0.0.1", self.server.port, binary=True
        ).connect()

    async def teardown(self) -> None:
        await self.client.aclose()
        await self.server.stop()
        await super().teardown()

    async def _send(self, burst: np.ndarray) -> int:
        response = await self.client.send_batch(burst, retry=RETRY_ROUNDS)
        return response["delivered"]


class WordsOpen(Workload):
    name = "words-open"
    m = 8
    tail_q = 0.99
    closed_loop = False
    rate = 500.0
    queue_capacity = 32
    zipf_alpha = 1.1
    tenants = {"gold": 8, "bronze": 1}

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.permutations.generators import zipf_weights

        super().__init__(seed, seconds)
        n = 1 << self.m
        expected = int(self.rate * seconds)
        gaps = self.rng.exponential(
            1.0 / self.rate, size=expected + 10 * int(expected ** 0.5) + 10
        )
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < seconds].tolist()
        weights = np.asarray(zipf_weights(n, self.zipf_alpha))
        count = len(self.offsets)
        self.dests = self.rng.choice(
            n, size=count, p=weights / weights.sum()
        ).tolist()
        names = list(self.tenants)
        self.word_tenants = [
            names[pick] for pick in self.rng.integers(0, 2, size=count)
        ]

    async def setup(self) -> None:
        from repro.client import GatewayClient
        from repro.server import AsyncGateway, GatewayServer

        self.gateway = await AsyncGateway(
            _gateway_config(
                self.m, self.queue_capacity, tenants=dict(self.tenants)
            )
        ).start()
        self.gateways = [self.gateway]
        self.server = await GatewayServer(self.gateway, port=0).start()
        self.client = await GatewayClient(
            "127.0.0.1", self.server.port, binary=True
        ).connect()

    async def teardown(self) -> None:
        await self.client.aclose()
        await self.server.stop()
        await self.gateway.stop(drain=True)

    def oracle_frames(self) -> np.ndarray:
        """Frames as the scheduler would form them if the first words
        all queued at once: each frame takes the next waiting word of
        every destination, idle-filled to a full permutation."""
        from repro.core.traffic import coalesce_frame

        n = 1 << self.m
        waiting: Dict[int, int] = {}
        for dest in self.dests[: 8 * n]:
            waiting[dest] = waiting.get(dest, 0) + 1
        frames = []
        while waiting and len(frames) < ORACLE_FRAMES:
            heads = sorted(waiting)
            frames.append(coalesce_frame(heads, n).addresses)
            for dest in heads:
                waiting[dest] -= 1
                if not waiting[dest]:
                    del waiting[dest]
        return np.asarray(frames, dtype=np.int64)

    async def drive(self, out: Outcome, gate: Gate, deadline: float) -> None:
        echoed: List[int] = [-1] * len(self.dests)
        sent = self.dests
        out.offered = len(sent)

        async def fire(index: int) -> bool:
            try:
                receipt = await self.client.send(
                    sent[index], tenant=self.word_tenants[index], retry=True
                )
            except ReproError as error:
                out.error(1, error)
                return False
            echoed[index] = receipt["dest"]
            out.delivered += 1
            return True

        await open_loop(self.offsets, fire, out)
        delivered = [i for i, echo in enumerate(echoed) if echo != -1]
        gate.receipts(
            [sent[i] for i in delivered], [echoed[i] for i in delivered]
        )
        if out.late and out.late[-1] > MAX_FINAL_LATE_SHARE * self.seconds:
            gate.fail(
                f"open-loop generator fell {out.late[-1]:.3f}s behind its "
                f"{self.rate:.0f} words/s schedule"
            )


class ClusterBulk(Workload):
    name = "cluster-bulk"
    m = 6
    nodes = 2
    frames_per_burst = 32
    queue_capacity = 256

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.bursts = permutation_bursts(
            self.rng, self.nodes << self.m, self.frames_per_burst, BURST_POOL
        )

    async def setup(self) -> None:
        from repro.cluster import (
            ClusterClient,
            ClusterRouter,
            LocalNode,
            NodeSpec,
            NodeSupervisor,
        )

        self.supervisor = NodeSupervisor(
            [
                LocalNode(
                    NodeSpec(
                        node_id=f"node-{k}",
                        m=self.m,
                        planes=PLANES,
                        queue_capacity=self.queue_capacity,
                        engine=ENGINE,
                        batch_window=BATCH_WINDOW,
                    )
                )
                for k in range(self.nodes)
            ]
        )
        # No node is killed, so no health loop: its polls would only
        # add noise to the timed window.
        self.router = await ClusterRouter(
            self.supervisor, health_loop=False
        ).start()
        self.client = await ClusterClient(
            list(self.supervisor.addresses.values())
        ).connect()
        self.gateways = [
            node.gateway for node in self.supervisor.nodes.values()
        ]

    async def teardown(self) -> None:
        await self.client.aclose()
        await self.router.stop()

    def oracle_frames(self) -> np.ndarray:
        """Each global permutation splits into one local permutation
        per node shard, in arrival order."""
        n = 1 << self.m
        rows = self.bursts[0].reshape(-1, self.nodes * n)
        local = [
            row[(row >= base) & (row < base + n)] - base
            for row in rows
            for base in range(0, self.nodes * n, n)
        ]
        return np.asarray(local[:ORACLE_FRAMES], dtype=np.int64)

    async def drive(self, out: Outcome, gate: Gate, deadline: float) -> None:
        async def send(burst: np.ndarray) -> int:
            response = await self.client.send_batch(burst, retry=RETRY_ROUNDS)
            out.rounds.append(response["rounds"])
            for node, words in response["nodes"].items():
                out.node_words[node] = out.node_words.get(node, 0) + words
            return response["delivered"]

        await closed_loop(self.bursts, deadline, send, out)


WORKLOADS = {
    workload.name: workload
    for workload in (BulkInproc, BulkWire, WordsOpen, ClusterBulk)
}
