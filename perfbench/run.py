"""The serving benchmark: one workload, one seed, one timed window.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-inproc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` repeats the workload with every serving layer's public
call wrapped in a span and reports the per-layer metrics instead (the
spans are written to ``perfbench/out/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
words, and ``metrics`` by name with value and unit.  A run whose
correctness gate fails (see ``gate.py``) prints ``"correct": false``,
lists the failures on standard error and exits 1.  The line before it
gives the request count, the tail percentile used, the rate as timed
and the host slowdown the end-to-end times were scaled by (see
``hostspeed.py``).

``delivered_share`` is delivered over offered words; the words that
failed are the result's ``failed`` count.  Set-up is timed from
gateway construction to the moment the first request could be sent,
repeated :data:`SETUPS` times, each with the compile caches cleared and
the heap collected (as a fresh process would find them); the median is
reported and the last set-up serves the timed window.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import pathlib
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gate import Gate  # noqa: E402
from hostspeed import (  # noqa: E402
    REFERENCE_S,
    Sampler,
    Slice,
    reference_seconds,
)
from stats import median, quantile, tail_quantile  # noqa: E402
from tracing import Tracer, instrument, span_costs  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: Set-ups per run; their median is ``setup_s``.
SETUPS = 15

END_TO_END = {
    "words_per_s": "words/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "delivered_share": "share",
    "cpu_us_per_word": "us/word",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "voq.admit_s": "s",
    "voq.offered": "count",
    "voq.rejected": "count",
    "voq.accept_ratio": "ratio",
    "voq.max_depth": "count",
    "scheduler.next_frame_s": "s",
    "scheduler.frames": "count",
    "scheduler.mean_fill": "ratio",
    "planes.step_s": "s",
    "planes.verify_s": "s",
    "planes.batches": "count",
    "planes.frames_per_batch": "count",
    "backend.route_s": "s",
    "backend.frames": "count",
    "gateway.tick_s": "s",
    "gateway.ticks": "count",
    "gateway.tick_self_s": "s",
    "gateway.retry_wait_s": "s",
    "gateway.queue_cycles_p50": "cycles",
    "gateway.queue_cycles_p99": "cycles",
    "framing.encode_s": "s",
    "framing.decode_s": "s",
    "framing.messages": "count",
    "framing.bytes_per_word": "B/word",
    "ops.dispatch_s": "s",
    "ops.self_s": "s",
    "client.requests": "count",
    "client.request_s": "s",
    "cluster.locate_s": "s",
    "cluster.rounds_per_batch": "count",
    "cluster.node_share_max": "ratio",
    "process.cpu_util": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
}


def clear_compile_caches() -> None:
    """Forget every compiled plan and backend, as in a fresh process."""
    from repro.backends import compiled_backend
    from repro.bits import cached_shuffle_permutation, cached_unshuffle_permutation
    from repro.core.plan import compiled_plan

    for cache in (
        compiled_backend,
        compiled_plan,
        cached_shuffle_permutation,
        cached_unshuffle_permutation,
    ):
        cache.cache_clear()


@dataclasses.dataclass
class Window:
    """The timed window: wall and CPU seconds, the load deadline, and
    the host-speed slices sampled through it."""

    wall: float
    cpu: float
    deadline: float
    sampler: Sampler
    slices: List[Slice]


def end_to_end(
    workload: Workload, out: Outcome, window: Window, setup_times: List[float]
) -> Tuple[Dict[str, float], float]:
    """The user-visible metrics, in time on the reference host (see
    ``hostspeed.py``).  Each latency is scaled by the host slowdown
    sampled around the moment its request completed; CPU per word is
    the median over the slices that end by the deadline, each scaled by
    its slowdown.  A closed loop's rate is the median of its slices'
    scaled rates; an open loop's rate is set by its schedule, so it is
    the plain total over the window."""
    slices = window.slices
    latencies = [
        latency / window.sampler.slowdown_at(done)
        for latency, done in zip(out.latencies, out.completed)
    ]
    q = min(workload.tail_q, tail_quantile(len(latencies)))
    timed = [
        piece for piece in slices
        if piece.start + piece.seconds <= window.deadline
    ] or slices
    busy = [piece for piece in timed if piece.words]
    cpu_per_word = (
        median([piece.cpu / piece.words / piece.slowdown for piece in busy])
        if busy else window.cpu / out.delivered
    )
    if workload.closed_loop:
        words_per_s = median(
            [piece.words / piece.seconds * piece.slowdown for piece in timed]
        )
    else:
        words_per_s = out.delivered / window.wall
    values = {
        "words_per_s": words_per_s,
        "p50_ms": median(latencies) * 1e3,
        "tail_ms": quantile(latencies, q) * 1e3,
        "delivered_share": out.delivered / out.offered,
        "cpu_us_per_word": cpu_per_word * 1e6,
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return values, q


def per_layer(
    tracer: Tracer,
    stats: List[Dict[str, Any]],
    out: Outcome,
    wall: float,
    cpu: float,
    span_cost: Tuple[float, float],
) -> Dict[str, float]:
    roll = tracer.rollup()
    queues = [s["queues"] for s in stats]
    offered = sum(q["offered"] for q in queues)
    frames = sum(s["scheduler"]["frames"] for s in stats)
    lines = sum(s["scheduler"]["frames"] * s["n"] for s in stats)
    batches = sum(
        plane["batches_routed"] for s in stats for plane in s["planes"]
    )
    routed = tracer.counts["backend.route"]

    def cycles(key: str) -> float:
        return float(max((s["latency_cycles"][key] or 0) for s in stats))

    return {
        "voq.admit_s": roll.total("voq.admit"),
        "voq.offered": offered,
        "voq.rejected": sum(q["rejected"] for q in queues),
        "voq.accept_ratio": (
            sum(q["accepted"] for q in queues) / offered if offered else 0.0
        ),
        "voq.max_depth": max(q["max_depth"] for q in queues),
        "scheduler.next_frame_s": roll.total("scheduler.next_frame"),
        "scheduler.frames": frames,
        "scheduler.mean_fill": (
            sum(s["scheduler"]["words"] for s in stats) / lines
            if lines else 0.0
        ),
        "planes.step_s": roll.total("planes.step"),
        "planes.verify_s": roll.self_time("planes.step"),
        "planes.batches": batches,
        "planes.frames_per_batch": routed / batches if batches else 0.0,
        "backend.route_s": roll.total("backend.route"),
        "backend.frames": routed,
        "gateway.tick_s": roll.total("gateway.tick"),
        "gateway.ticks": roll.count("gateway.tick"),
        "gateway.tick_self_s": roll.self_time("gateway.tick"),
        "gateway.retry_wait_s": roll.total("gateway.retry_wait"),
        "gateway.queue_cycles_p50": cycles("p50"),
        "gateway.queue_cycles_p99": cycles("p99"),
        "framing.encode_s": roll.total("framing.encode"),
        "framing.decode_s": roll.total("framing.decode"),
        "framing.messages": roll.count("framing.encode"),
        "framing.bytes_per_word": tracer.counts["framing.encode"]
        / out.delivered,
        "ops.dispatch_s": roll.total("ops.dispatch"),
        "ops.self_s": roll.self_time("ops.dispatch"),
        "client.requests": roll.count("client.request"),
        "client.request_s": roll.total("client.request"),
        "cluster.locate_s": roll.total("cluster.locate"),
        "cluster.rounds_per_batch": (
            sum(out.rounds) / len(out.rounds) if out.rounds else 0.0
        ),
        "cluster.node_share_max": (
            max(out.node_words.values()) / out.delivered
            if out.node_words else 0.0
        ),
        "process.cpu_util": cpu / wall,
        "loadgen.late_p99_ms": (
            quantile(out.late, 0.99) * 1e3 if out.late else 0.0
        ),
        "trace.coverage": roll.covered_s / cpu,
        "trace.overhead_share": (
            roll.sync_spans * span_cost[0] + roll.async_spans * span_cost[1]
        ) / cpu,
    }


async def measure(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    workload = WORKLOADS[name](seed, seconds)
    gate = Gate()
    out = Outcome()
    setup_times: List[float] = []
    for attempt in range(SETUPS):
        clear_compile_caches()
        # Start from a collected heap, as a fresh process would, so the
        # previous set-up's garbage is not collected inside this one.
        gc.collect()
        slowdown = reference_seconds() / REFERENCE_S
        start = time.perf_counter()
        await workload.setup()
        setup_times.append((time.perf_counter() - start) / slowdown)
        if attempt < SETUPS - 1:
            await workload.teardown()
    tracer = Tracer() if trace else None
    try:
        frames = workload.oracle_frames()
        for gateway in workload.gateways:
            gate.oracle(gateway.planes[0].backend, frames)
        sampler = Sampler(
            lambda: sum(g.delivered_words for g in workload.gateways)
        )
        if tracer is not None:
            instrument(tracer)
        try:
            sampler.start()
            cpu_start, wall_start = time.process_time(), time.perf_counter()
            await workload.drive(out, gate, wall_start + seconds)
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
        finally:
            await sampler.stop()
            if tracer is not None:
                tracer.restore()
        stats = [gateway.stats() for gateway in workload.gateways]
    finally:
        await workload.teardown()
    window = Window(wall, cpu, wall_start + seconds, sampler, sampler.slices())
    gate.accounting(
        out.offered,
        out.delivered,
        out.failed,
        sum(s["delivered_words"] for s in stats),
    )
    for snapshot in stats:
        gate.gateway_stats(snapshot)
    if not out.delivered:
        raise RuntimeError(f"{name}: no word was delivered ({out.errors})")
    e2e, q = end_to_end(workload, out, window, setup_times)
    if tracer is None:
        metrics, units = e2e, END_TO_END
    else:
        metrics = per_layer(tracer, stats, out, wall, cpu, await span_costs())
        units = PER_LAYER
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(str(HERE / "out" / f"trace-{name}-seed{seed}.npz"))
    slowdowns = [piece.slowdown for piece in window.slices]
    return {
        "summary": (
            f"{name} seed={seed}: {len(out.latencies)} requests in "
            f"{wall:.2f}s, tail at p{round(q * 100)}, "
            f"{out.delivered}/{out.offered} words delivered "
            f"({out.delivered / wall:.0f} words/s as timed), host slowdown "
            f"median {median(slowdowns):.3f} range {min(slowdowns):.3f}-"
            f"{max(slowdowns):.3f}, errors {out.errors or 'none'}"
        ),
        "failures": gate.failures,
        "result": {
            "correct": gate.ok,
            "attempted": out.offered,
            "failed": out.failed,
            "metrics": {
                key: {"value": float(metrics[key]), "unit": unit}
                for key, unit in units.items()
            },
        },
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = asyncio.run(
        measure(args.workload, args.seed, args.seconds, bool(args.trace))
    )
    for failure in report["failures"]:
        print(f"correctness: {failure}", file=sys.stderr)
    print(report["summary"])
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
