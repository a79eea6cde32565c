"""Tests of the serving benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from gate import Gate
from stats import quantile, tail_quantile
from tracing import ASYNC, SYNC, Tracer, rollup
from workloads import WORKLOADS, Outcome, open_loop

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "samples, expected",
    [(5000, 0.99), (902, 0.99), (901, 0.95), (182, 0.95), (181, 0.90),
     (92, 0.90), (40, 0.90)],
)
def test_tail_quantile_thresholds(samples, expected):
    assert tail_quantile(samples) == expected


def test_tail_quantile_leaves_ten_samples_beyond():
    for samples in range(92, 2500, 7):
        values = list(range(samples))
        q = tail_quantile(samples)
        beyond = sum(value > quantile(values, q) for value in values)
        assert beyond >= 10, (samples, q)
        higher = [c for c in (0.99, 0.95) if c > q]
        if higher:
            # The next higher candidate would leave fewer than ten.
            cut = quantile(values, min(higher))
            assert sum(value > cut for value in values) < 10, (samples, q)


# ----------------------------------------------------------------------
# Self time with nested children
# ----------------------------------------------------------------------
def test_rollup_self_time_with_nested_children():
    names = ["gateway.send", "voq.admit", "gateway.tick",
             "scheduler.next_frame", "planes.step", "backend.route"]
    kinds = [ASYNC, SYNC, SYNC, SYNC, SYNC, SYNC]
    spans = [
        # id, parent, name, start, end — in completion order, as recorded
        (6, 1, 1, 10, 40),        # admit inside an async send
        (3, 2, 3, 110, 210),      # next_frame inside tick
        (5, 4, 5, 320, 500),      # route inside step
        (4, 2, 4, 300, 550),      # step inside tick
        (2, 0, 2, 100, 600),      # tick, top level
        (1, 0, 0, 0, 1000),       # the async send
        (7, 99, 5, 700, 720),     # parent never recorded: top level
    ]
    roll = rollup(np.array(spans).reshape(-1), names, kinds)
    ns = 1e-9
    assert roll.self_time("gateway.tick") == pytest.approx(150 * ns)
    assert roll.self_time("planes.step") == pytest.approx(70 * ns)
    assert roll.self_time("backend.route") == pytest.approx(200 * ns)
    assert roll.total("backend.route") == pytest.approx(200 * ns)
    assert roll.self_time("gateway.send") == pytest.approx(970 * ns)
    assert roll.count("backend.route") == 2
    # Sync spans with no sync ancestor: admit, tick and the orphan.
    assert roll.covered_s == pytest.approx((30 + 500 + 20) * ns)
    assert (roll.sync_spans, roll.async_spans) == (6, 1)


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    async def wait(self):
        await asyncio.sleep(0)
        return self.inner()


class _Child(_Layer):
    pass


def test_wrap_nests_spans_and_restores_originals():
    outer, inner = vars(_Layer)["outer"], vars(_Layer)["inner"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner")
    tracer.wrap(_Layer, "wait", "layer.wait")
    tracer.wrap(_Child, "inner", "child.inner")
    layer = _Layer()
    assert layer.outer() == 2
    assert asyncio.run(layer.wait()) == 1
    tracer.restore()
    assert vars(_Layer)["outer"] is outer and vars(_Layer)["inner"] is inner
    assert "inner" not in vars(_Child)
    rows = np.frombuffer(tracer.spans, dtype=np.int64).reshape(-1, 5)
    by_id = {row[0]: row for row in rows}
    name = {row[0]: tracer.names[row[2]] for row in rows}
    parents = {name[i]: name.get(by_id[i][1]) for i in by_id}
    assert list(name.values()).count("layer.inner") == 2
    assert parents["layer.outer"] is None and parents["layer.wait"] is None
    nested = [name[by_id[i][1]] for i in by_id if name[i] == "layer.inner"]
    assert sorted(nested) == ["layer.outer", "layer.wait"]
    assert layer.outer() == 2 and len(tracer.spans) == 4 * 5


# ----------------------------------------------------------------------
# Due-time accounting of the open loop
# ----------------------------------------------------------------------
def test_open_loop_times_latency_from_the_due_time():
    offsets = [0.0, 0.01, 0.02, 0.03]
    stall = 0.05

    async def fire(index):
        if index == 0:
            time.sleep(stall)  # blocks the loop: later words go out late
        await asyncio.sleep(0)
        return index != 3  # the last word fails

    out = Outcome()
    asyncio.run(open_loop(offsets, fire, out))
    assert len(out.late) == 4 and len(out.latencies) == 3
    assert out.late[1] >= stall - offsets[1] - 0.005
    assert out.late[2] >= stall - offsets[2] - 0.005
    # Every word delivered after the stall is charged for it.
    assert min(out.latencies) >= stall - offsets[2] - 0.005
    assert max(out.latencies) >= stall - 0.005
    assert out.completed == sorted(out.completed)


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------
def test_gate_fires_on_one_misdelivered_word():
    gate = Gate()
    gate.receipts([5, 9, 3, 7], [5, 9, 3, 7])
    assert gate.ok
    gate.receipts([5, 9, 3, 7], [5, 9, 4, 7])
    assert not gate.ok
    assert "word 2 sent to 3 came back from 4" in gate.failures[0]


def test_gate_fires_on_a_backend_that_swaps_two_outputs():
    from repro.backends import compiled_backend

    engine = compiled_backend("bnb", 3)
    frames = np.stack([np.random.default_rng(k).permutation(8) for k in range(4)])
    gate = Gate()
    gate.oracle(engine, frames)
    assert gate.ok

    class Swapping:
        name = "swapping"

        def route_frame_batch(self, addresses):
            routed = engine.route_frame_batch(addresses).copy()
            routed[2, [0, 1]] = routed[2, [1, 0]]
            return routed

    gate.oracle(Swapping(), frames)
    assert not gate.ok and "frame 2" in gate.failures[0]


def test_gate_checks_accounting_and_gateway_stats():
    stats = {
        "node_id": "gw",
        "planes": [{"id": 0, "healthy": True, "failure": None}],
        "delivery_modes": {"clean": 4},
        "queues": {"offered": 9, "accepted": 8, "rejected": 1, "requeued": 0},
    }
    gate = Gate()
    gate.gateway_stats(stats)
    gate.accounting(offered=10, delivered=9, failed=1, server_delivered=9)
    assert gate.ok
    gate.accounting(offered=10, delivered=9, failed=1, server_delivered=8)
    assert len(gate.failures) == 1
    stats["planes"][0].update(healthy=False, failure="misdelivery")
    stats["delivery_modes"]["failover"] = 1
    stats["queues"].update(rejected=0, requeued=2)
    gate.gateway_stats(stats)
    assert len(gate.failures) == 5


# ----------------------------------------------------------------------
# Tiny end-to-end runs of every workload
# ----------------------------------------------------------------------
def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if workload == "bulk-inproc" and trace:
        # The retry-hint defect stays visible: opening bursts bounce.
        assert result["metrics"]["voq.rejected"]["value"] > 0
        assert result["metrics"]["gateway.retry_wait_s"]["value"] > 0


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("bulk-wire", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
