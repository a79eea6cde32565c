"""Node lifecycle and health polling for the cluster tier.

:class:`NodeSupervisor` owns a set of gateway nodes — in-process
(:class:`LocalNode`: an :class:`~repro.server.gateway.AsyncGateway`
plus :class:`~repro.server.protocol.GatewayServer` on a loopback port)
or spawned (:class:`SubprocessNode`: ``python -m repro serve`` with a
``--node-id``, its port parsed from the serving banner).  Either way
the supervisor only ever talks to a node *over the wire*, so the
health loop exercises exactly the path a real deployment would:
short-lived :class:`~repro.client.GatewayClient` connections issuing
``stats`` / ``drain`` / ``rejoin`` / ``shard_map`` ops.

The health loop polls every node on an interval and feeds
:class:`~repro.cluster.health.NodeHealth`; when a node's consecutive
failures cross the threshold (or :meth:`NodeSupervisor.kill` crashes
it deliberately), the supervisor fires ``on_node_down`` — the
:class:`~repro.cluster.router.ClusterRouter` hooks this to reshard and
push the new map to the survivors.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import sys
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..client import GatewayClient
from ..exceptions import ClusterError, InputError
from .health import DOWN, NodeHealth

__all__ = ["LocalNode", "NodeSpec", "NodeSupervisor", "SubprocessNode"]

#: ``repro serve`` banner, e.g. ``serving N=64 on 127.0.0.1:40735 (...)``.
_BANNER = re.compile(r"serving N=\d+ on (\S+):(\d+)")


@dataclasses.dataclass
class NodeSpec:
    """How to build one gateway node of the cluster."""

    node_id: str
    m: int
    host: str = "127.0.0.1"
    port: int = 0  # 0 picks a free port
    planes: int = 1
    queue_capacity: int = 64
    engine: str = "bnb"
    batch_window: int = 32

    @property
    def n(self) -> int:
        return 1 << self.m


class LocalNode:
    """One in-process gateway node: fabric, gateway, TCP server.

    The node still serves real sockets — only the *process* boundary is
    elided, which keeps a multi-node cluster cheap enough to soak in CI
    while exercising the same wire path as a spawned node.
    """

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.gateway: Optional[Any] = None
        self.server: Optional[Any] = None

    @property
    def running(self) -> bool:
        return self.server is not None

    async def start(self) -> Tuple[str, int]:
        from ..server import AsyncGateway, GatewayConfig, GatewayServer

        if self.running:
            raise InputError(f"node {self.spec.node_id!r} already running")
        config = GatewayConfig(
            m=self.spec.m,
            planes=self.spec.planes,
            queue_capacity=self.spec.queue_capacity,
            engine=self.spec.engine,
            batch_window=self.spec.batch_window,
            node_id=self.spec.node_id,
        )
        self.gateway = await AsyncGateway(config).start()
        self.server = await GatewayServer(
            self.gateway, host=self.spec.host, port=self.spec.port
        ).start()
        return self.spec.host, self.server.port

    async def stop(self) -> None:
        """Graceful shutdown: serve out the backlog, then close."""
        server, self.server = self.server, None
        gateway, self.gateway = self.gateway, None
        if server is not None:
            await server.stop()
        if gateway is not None:
            await gateway.stop(drain=True)

    async def kill(self) -> None:
        """Crash the node: drop the socket and abandon the backlog."""
        server, self.server = self.server, None
        gateway, self.gateway = self.gateway, None
        if server is not None:
            await server.stop()
        if gateway is not None:
            await gateway.stop(drain=False)


class SubprocessNode:
    """One spawned ``python -m repro serve`` gateway process."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.process: Optional[asyncio.subprocess.Process] = None

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.returncode is None

    def _argv(self) -> List[str]:
        spec = self.spec
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(spec.n),
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            "--planes",
            str(spec.planes),
            "--capacity",
            str(spec.queue_capacity),
            "--engine",
            spec.engine,
            "--node-id",
            spec.node_id,
        ]

    async def start(self) -> Tuple[str, int]:
        if self.running:
            raise InputError(f"node {self.spec.node_id!r} already running")
        self.process = await asyncio.create_subprocess_exec(
            *self._argv(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        assert self.process.stdout is not None
        # The serve banner is printed (and flushed) once the socket is
        # bound; parse the actual port from it so port 0 works.
        while True:
            line = await self.process.stdout.readline()
            if not line:
                code = await self.process.wait()
                raise ClusterError(
                    f"node {self.spec.node_id!r} exited (code {code}) "
                    f"before binding its socket"
                )
            match = _BANNER.search(line.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))

    async def stop(self) -> None:
        process, self.process = self.process, None
        if process is not None and process.returncode is None:
            process.terminate()
            try:
                await asyncio.wait_for(process.wait(), timeout=10)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

    async def kill(self) -> None:
        process, self.process = self.process, None
        if process is not None and process.returncode is None:
            process.kill()
            await process.wait()


class NodeSupervisor:
    """Launch, watch, drain and crash the cluster's nodes.

    ``on_node_down`` is an async callback ``(node_id) -> None`` fired
    exactly once per transition into DOWN — from the health loop when a
    failure streak crosses the threshold, or immediately from
    :meth:`kill`.  The router uses it to reshard.
    """

    def __init__(
        self,
        nodes: List[Any],
        *,
        poll_interval: float = 0.25,
        poll_timeout: float = 2.0,
        failure_threshold: int = 3,
        on_node_down: Optional[
            Callable[[str], Awaitable[None]]
        ] = None,
    ) -> None:
        self.nodes: Dict[str, Any] = {
            node.spec.node_id: node for node in nodes
        }
        if len(self.nodes) != len(nodes):
            raise InputError("node ids must be unique")
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self.health: Dict[str, NodeHealth] = {
            node_id: NodeHealth(node_id, failure_threshold=failure_threshold)
            for node_id in self.nodes
        }
        self.poll_interval = poll_interval
        self.poll_timeout = poll_timeout
        self.on_node_down = on_node_down
        self._health_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_all(self) -> Dict[str, Tuple[str, int]]:
        """Start every node; returns ``{node_id: (host, port)}``."""
        for node_id, node in self.nodes.items():
            self.addresses[node_id] = await node.start()
        return dict(self.addresses)

    async def stop_all(self) -> None:
        await self.stop_health_loop()
        for node in self.nodes.values():
            await node.stop()

    async def __aenter__(self) -> "NodeSupervisor":
        await self.start_all()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop_all()

    # ------------------------------------------------------------------
    # The wire: every control action is a real client op
    # ------------------------------------------------------------------
    async def wire(self, node_id: str, op: str, **fields: Any) -> Dict[str, Any]:
        """One op against one node over a short-lived connection.

        The client object is created before the first await so the
        ``finally`` always owns it — a health-loop cancellation landing
        mid-connect must not orphan the reader task.
        """
        host, port = self.addresses[node_id]
        client = GatewayClient(host, port)
        try:
            await asyncio.wait_for(
                client.connect(), timeout=self.poll_timeout
            )
            return await asyncio.wait_for(
                client.request(op, **fields), timeout=self.poll_timeout
            )
        finally:
            await client.aclose()

    async def poll_once(self, node_id: str) -> NodeHealth:
        """One health probe: ``stats`` over the wire, state updated."""
        health = self.health[node_id]
        try:
            response = await self.wire(node_id, "stats")
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ) as error:
            flipped = health.mark_failure(str(error) or type(error).__name__)
            if flipped:
                await self._fire_down(node_id)
        else:
            health.mark_ok(response.get("stats", {}))
        return health

    async def poll_all(self) -> Dict[str, str]:
        """Probe every non-DOWN node; returns ``{node_id: state}``."""
        for node_id in list(self.nodes):
            if self.health[node_id].state != DOWN:
                await self.poll_once(node_id)
        return {
            node_id: health.state for node_id, health in self.health.items()
        }

    def start_health_loop(self) -> asyncio.Task:
        if self._health_task is not None:
            raise InputError("health loop already running")
        self._stopped.clear()
        self._health_task = asyncio.ensure_future(self._run_health_loop())
        return self._health_task

    async def stop_health_loop(self) -> None:
        task, self._health_task = self._health_task, None
        self._stopped.set()
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run_health_loop(self) -> None:
        while not self._stopped.is_set():
            await self.poll_all()
            try:
                await asyncio.wait_for(
                    self._stopped.wait(), timeout=self.poll_interval
                )
            except asyncio.TimeoutError:
                pass

    async def _fire_down(self, node_id: str) -> None:
        if self.on_node_down is not None:
            await self.on_node_down(node_id)

    # ------------------------------------------------------------------
    # Operator verbs
    # ------------------------------------------------------------------
    async def drain(self, node_id: str) -> Dict[str, Any]:
        response = await self.wire(node_id, "drain")
        self.health[node_id].mark_draining()
        return response

    async def rejoin(self, node_id: str) -> Dict[str, Any]:
        response = await self.wire(node_id, "rejoin")
        self.health[node_id].mark_rejoined()
        return response

    async def kill(self, node_id: str) -> None:
        """Crash a node mid-run (fault drill); fires ``on_node_down``."""
        node = self.nodes[node_id]
        await node.kill()
        if self.health[node_id].mark_down("killed by supervisor"):
            await self._fire_down(node_id)

    async def restart(self, node_id: str) -> Tuple[str, int]:
        """Start a previously stopped/killed node again (same spec)."""
        node = self.nodes[node_id]
        if node.running:
            raise InputError(f"node {node_id!r} is already running")
        self.addresses[node_id] = await node.start()
        health = self.health[node_id]
        health.consecutive_failures = 0
        health.state = DOWN  # stays DOWN until the router rejoins it
        return self.addresses[node_id]

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            self.health[node_id].snapshot() for node_id in sorted(self.nodes)
        ]
