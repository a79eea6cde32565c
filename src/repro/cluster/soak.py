"""The cluster soak/smoke harness: drive, kill, verify.

One async entry point, :func:`run_soak`, shared by the
``repro cluster --smoke`` CLI and ``benchmarks/bench_cluster_soak.py``:
boot an N-node cluster of in-process gateway nodes, pump a word budget
through a :class:`~repro.cluster.client.ClusterClient` in concurrent
bursts, optionally **kill one node mid-run**, and account for every
word.

The two numbers that matter come out exact, not sampled:

* **delivery** — a burst only completes when every one of its words
  was acknowledged by some node (the cluster client retries and fails
  over until then), so ``delivered == requested`` or the run raises.
* **misdeliveries** — interleaved echo probes: single ``send``s whose
  receipt must name the node and *local* line the shard map predicted
  (on the map version the probe was routed with).  The fabric's own
  sampled boundary verification backs this up underneath.

The harness returns a JSON-safe dict (the ``cluster_soak.json``
artifact schema in ``benchmarks/check_artifacts.py`` pins its shape).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..exceptions import ClusterError
from .client import ClusterClient
from .router import ClusterRouter
from .supervisor import LocalNode, NodeSpec, NodeSupervisor

__all__ = ["run_soak"]


async def run_soak(
    *,
    nodes: int = 4,
    m: int = 6,
    words: int = 1_000_000,
    kill: bool = True,
    kill_at: float = 0.4,
    burst: int = 8192,
    in_flight: int = 4,
    engine: str = "bnb",
    batch_window: int = 64,
    queue_capacity: int = 256,
    planes: int = 1,
    seed: int = 0,
    verify_every: int = 8,
    poll_interval: float = 0.05,
) -> Dict[str, Any]:
    """Soak a local cluster; returns the accounting dict.

    Raises :class:`~repro.exceptions.ClusterError` if any word could
    not be delivered — the caller never needs to inspect a partial
    result to learn the run failed.
    """
    if nodes < 2:
        raise ClusterError("a soak needs at least 2 nodes (one may die)")
    if kill:
        # The kill must land with traffic still to come, or the run
        # would prove nothing about resharded delivery; cap the burst
        # so there are always several bursts after the threshold.
        burst = min(burst, max(1, words // 6))
    specs = [
        NodeSpec(
            node_id=f"node-{index}",
            m=m,
            engine=engine,
            batch_window=batch_window,
            queue_capacity=queue_capacity,
            planes=planes,
        )
        for index in range(nodes)
    ]
    supervisor = NodeSupervisor(
        [LocalNode(spec) for spec in specs],
        poll_interval=poll_interval,
        poll_timeout=2.0,
        failure_threshold=2,
    )
    router = ClusterRouter(supervisor)
    victim = f"node-{nodes - 1}" if kill else None
    kill_threshold = int(words * kill_at)

    totals = {
        "delivered": 0,
        "bursts": 0,
        "verified_sends": 0,
        "misdeliveries": 0,
        "max_rounds": 0,
    }
    kill_record: Dict[str, Any] = {"killed": False, "at_words": None}
    progress_lock = asyncio.Lock()

    async with router:
        assert router.map is not None
        n_global = router.map.n_global
        addresses = list(supervisor.addresses.values())
        burst_count = -(-words // burst)  # ceil

        async with ClusterClient(
            addresses,
            max_attempts=64,
            retry_floor_seconds=poll_interval,
        ) as client:

            async def _verify_echo(rng: np.random.Generator) -> None:
                """One echo probe: the receipt must match the map."""
                dest = int(rng.integers(0, n_global))
                assert client.map is not None
                expected_node, expected_local = client.map.locate(dest)
                response = await client.send(dest, payload=dest)
                totals["verified_sends"] += 1
                served_node = response["node_id"]
                local_echo = response["local_dest"]
                # The probe may have been re-routed mid-flight by a
                # fresher map than the one we predicted with; judge it
                # against the map it was actually served under.
                assert client.map is not None
                actual_node, actual_local = client.map.locate(dest)
                ok = (
                    local_echo == expected_local
                    and served_node == expected_node
                ) or (
                    local_echo == actual_local
                    and served_node == actual_node
                )
                if not ok:
                    totals["misdeliveries"] += 1

            next_burst = iter(range(burst_count))

            async def _worker(worker_index: int) -> None:
                rng = np.random.default_rng(seed * 7919 + worker_index)
                while True:
                    async with progress_lock:
                        index = next(next_burst, None)
                    if index is None:
                        return
                    count = min(burst, words - index * burst)
                    dests = np.random.default_rng(seed + index).integers(
                        0, n_global, count, dtype=np.int64
                    )
                    result = await client.send_batch(dests)
                    async with progress_lock:
                        totals["delivered"] += result["delivered"]
                        totals["bursts"] += 1
                        totals["max_rounds"] = max(
                            totals["max_rounds"], result["rounds"]
                        )
                        due_kill = (
                            victim is not None
                            and not kill_record["killed"]
                            and totals["delivered"] >= kill_threshold
                        )
                        if due_kill:
                            kill_record["killed"] = True
                            kill_record["at_words"] = totals["delivered"]
                    if due_kill:
                        await router.kill_node(victim)
                    if index % verify_every == 0:
                        await _verify_echo(rng)

            started = time.perf_counter()
            await asyncio.gather(
                *(_worker(index) for index in range(in_flight))
            )
            elapsed = time.perf_counter() - started

            # The post-kill state must be coherent: every shard served
            # by a live survivor, on a bumped map version.
            final_map = router.map
            assert final_map is not None
            if victim is not None and kill_record["killed"]:
                if victim in final_map.serving_nodes():
                    raise ClusterError(
                        f"{victim} still owns shards after its death"
                    )
                if supervisor.health[victim].state != "down":
                    raise ClusterError(
                        f"{victim} was killed but health says "
                        f"{supervisor.health[victim].state!r}"
                    )

            report: Dict[str, Any] = {
                "nodes": nodes,
                "node_n": 1 << m,
                "n_global": n_global,
                "engine": engine,
                "requested_words": words,
                "delivered_words": totals["delivered"],
                "delivery_rate": (
                    totals["delivered"] / words if words else 1.0
                ),
                "bursts": totals["bursts"],
                "burst_words": burst,
                "in_flight": in_flight,
                "verified_sends": totals["verified_sends"],
                "misdeliveries": totals["misdeliveries"],
                "max_batch_rounds": totals["max_rounds"],
                "killed_node": victim if kill_record["killed"] else None,
                "killed_at_words": kill_record["at_words"],
                "map_version": final_map.version,
                "map_events": list(router.events),
                "client_counters": dict(client.counters),
                "node_states": {
                    entry["node_id"]: entry["state"]
                    for entry in supervisor.snapshot()
                },
                "elapsed_seconds": round(elapsed, 3),
                "words_per_second": round(
                    totals["delivered"] / elapsed if elapsed else 0.0, 1
                ),
            }
            if totals["delivered"] < words:
                raise ClusterError(
                    f"soak lost words: {totals['delivered']} of {words} "
                    f"delivered"
                )
            if totals["misdeliveries"]:
                raise ClusterError(
                    f"soak observed {totals['misdeliveries']} "
                    f"misdelivered echo probe(s)"
                )
            return report


def render_report(report: Dict[str, Any]) -> List[str]:
    """The soak report as the CLI's plain-text lines."""
    lines = [
        f"cluster  : {report['nodes']} node(s) x N={report['node_n']} "
        f"= global N={report['n_global']} (engine {report['engine']})",
        f"traffic  : {report['delivered_words']}/{report['requested_words']} "
        f"words delivered in {report['bursts']} burst(s) "
        f"({report['words_per_second']:.0f} words/s)",
        f"checks   : {report['verified_sends']} echo probe(s), "
        f"{report['misdeliveries']} misdelivered",
    ]
    if report["killed_node"] is not None:
        lines.append(
            f"failover : killed {report['killed_node']} after "
            f"{report['killed_at_words']} words; map now "
            f"v{report['map_version']}"
        )
    else:
        lines.append(f"failover : none (map v{report['map_version']})")
    states = ", ".join(
        f"{node}={state}" for node, state in sorted(
            report["node_states"].items()
        )
    )
    lines.append(f"nodes    : {states}")
    return lines
