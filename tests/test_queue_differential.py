"""The array queues against the deque oracle (tests/queue_oracle.py).

Two layers:

* a hypothesis ``RuleBasedStateMachine`` drives
  :class:`~repro.server.voq.VirtualOutputQueues` +
  :class:`~repro.server.scheduler.FrameScheduler` and the oracle side by
  side through admissions, frame windows, requeues and drains, and
  checks after every step that both agree on every popped frame, every
  retry hint, every queue's contents and every counter;
* a differential gateway test runs the same random traffic through two
  :class:`~repro.server.gateway.AsyncGateway`\\ s — one on the array
  queues and window resolution, one with the oracle queues and the
  per-word resolution plugged in — including plane kills, a
  misdelivering backend and ``stop(drain=False)``, and compares every
  dispatched frame, every per-word ``BatchResult`` array and every
  counter.

Run with ``--hypothesis-profile=ci`` for ten times the default examples.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from typing import Any, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.backends import compiled_backend
from repro.server import (
    DEFAULT_TENANT,
    AsyncGateway,
    BackendPlane,
    FrameScheduler,
    GatewayConfig,
    VirtualOutputQueues,
)
from repro.server.voq import CLASS, ENQUEUED, INDEX, REQUEUES, SLOT

from .queue_oracle import OracleQueues, OracleScheduler, resolve_per_word

TENANT_NAMES = ("gold", "bronze", "walkin", DEFAULT_TENANT)


def frame_rows(frame) -> List[Tuple[Any, ...]]:
    """A window as comparable per-frame rows: tag, address row and the
    real lines' ``(slot, index, enqueued, requeues, class)`` words."""
    if frame is None:
        return []
    rows = []
    for row in range(len(frame)):
        active = int(frame.active[row])
        rows.append(
            (
                frame.tag + row,
                frame.scheduled_cycle,
                frame.addresses[row].tolist(),
                frame.words[row, :active].tolist(),
            )
        )
    return rows


def ring_contents(voqs: VirtualOutputQueues) -> List[List[Tuple[int, ...]]]:
    """Each destination's queued words, class by class, head first."""
    size = voqs._ring.shape[2]
    contents = []
    for dest in range(voqs.n):
        words = []
        for cls in range(voqs._depth.shape[0]):
            head = int(voqs._head[cls, dest])
            for k in range(int(voqs._depth[cls, dest])):
                word = voqs._ring[cls, dest, (head + k) % size]
                words.append(
                    (
                        int(word[SLOT]),
                        int(word[INDEX]),
                        int(word[ENQUEUED]),
                        int(word[REQUEUES]),
                        cls,
                    )
                )
        contents.append(words)
    return contents


def oracle_contents(voqs: OracleQueues) -> List[List[Tuple[int, ...]]]:
    """The oracle's queued entries in the same shape, classes in
    registration order."""
    names = voqs.class_names
    contents = []
    for entries in voqs.queued_entries():
        if names:
            entries = sorted(entries, key=lambda e: names.index(e.tenant))
        contents.append(
            [
                (
                    e.tracker,
                    e.batch_index,
                    e.enqueued_cycle,
                    e.requeues,
                    voqs._class(e.tenant),
                )
                for e in entries
            ]
        )
    return contents


class QueueMachine(RuleBasedStateMachine):
    """The array VOQ + scheduler and the oracle, step for step."""

    @initialize(
        m=st.integers(1, 4),
        capacity=st.integers(1, 8),
        tenants=st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {"gold": st.integers(1, 8), "bronze": st.integers(1, 8)}
            ),
        ),
        starvation=st.integers(1, 6),
    )
    def setup(self, m, capacity, tenants, starvation):
        self.n = 1 << m
        self.tenanted = tenants is not None
        self.array = VirtualOutputQueues(
            self.n, capacity, tenants=tenants, starvation_cycles=starvation
        )
        self.oracle = OracleQueues(
            self.n, capacity, tenants=tenants, starvation_cycles=starvation
        )
        self.array_scheduler = FrameScheduler(self.n)
        self.oracle_scheduler = OracleScheduler(self.n)
        self.cycle = 0
        self.next_index = 0
        self.requeued = False
        self.popped: List[Any] = []

    @rule(data=st.data())
    def admit_batch(self, data):
        dests = data.draw(
            st.lists(st.integers(0, self.n - 1), max_size=3 * self.n)
        )
        tenant = (
            data.draw(st.sampled_from(TENANT_NAMES))
            if self.tenanted
            else DEFAULT_TENANT
        )
        slot = data.draw(st.integers(-1, 3))
        self.cycle += data.draw(st.integers(0, 3))
        # Unique, increasing indices: a word's index is its arrival order.
        indices = np.arange(len(dests), dtype=np.int64) + self.next_index
        self.next_index += len(dests)
        array = self.array.admit_batch(
            np.array(dests, dtype=np.int64), self.cycle, slot, indices, tenant
        )
        oracle = self.oracle.admit_batch(
            dests, self.cycle, slot, indices, tenant
        )
        assert array[0] == oracle[0]
        assert array[1].tolist() == oracle[1].tolist()
        assert array[2].tolist() == oracle[2].tolist()

    @rule(window=st.integers(1, 64))
    def next_frame(self, window):
        self.cycle += 1
        array = self.array_scheduler.next_frame(self.array, self.cycle, window)
        oracle = self.oracle_scheduler.next_frame(
            self.oracle, self.cycle, window
        )
        assert frame_rows(array) == frame_rows(oracle)
        if array is not None:
            self.popped.append((array, oracle))

    @precondition(lambda self: self.popped)
    @rule(data=st.data())
    def requeue_front(self, data):
        pick = data.draw(st.integers(0, len(self.popped) - 1))
        array, oracle = self.popped.pop(pick)
        start = data.draw(st.integers(0, len(array) - 1))
        array_words = array.rows(start).stranded()
        oracle_words = oracle.rows(start).stranded()
        assert array_words.dests.tolist() == oracle_words.dests.tolist()
        assert array_words.words.tolist() == oracle_words.words.tolist()
        self.array.requeue_front(array_words.dests, array_words.words)
        self.oracle.requeue_front(oracle_words.dests, oracle_words.words)
        self.requeued = True

    @rule()
    def drain_all(self):
        assert self.array.drain_all() == self.oracle.drain_all()

    @invariant()
    def counters_agree(self):
        snap = self.array.snapshot()
        assert snap == self.oracle.snapshot()
        assert snap["offered"] == snap["accepted"] + snap["rejected"]
        assert self.array.total == sum(snap["depths"])
        assert self.array.total == self.oracle.total
        rows = snap.get("tenants")
        if rows is not None:
            for key in ("offered", "accepted", "rejected", "requeued"):
                assert sum(row[key] for row in rows.values()) == snap[key]
            assert sum(row["queued"] for row in rows.values()) == snap[
                "queued"
            ]

    @invariant()
    def queues_agree_and_stay_fifo(self):
        contents = ring_contents(self.array)
        assert contents == oracle_contents(self.oracle)
        if self.requeued:
            return
        # Without requeues, each (destination, class) queue holds its
        # words in arrival order.
        for words in contents:
            for cls in {word[4] for word in words}:
                indices = [word[1] for word in words if word[4] == cls]
                assert indices == sorted(indices)


QueueMachine.TestCase.settings = settings(deadline=None)
TestQueueMachine = QueueMachine.TestCase


# ----------------------------------------------------------------------
# Whole-gateway differential
# ----------------------------------------------------------------------
class _FlakyBackend:
    """The compiled BNB backend, except that one routing call swaps the
    sources of outputs 0 and 1 in one row — a misdelivery the plane must
    catch, kill itself over, and requeue."""

    def __init__(self, m: int, fail_call: int, fail_row: int) -> None:
        self._backend = compiled_backend("bnb", m)
        self.name = "flaky-bnb"
        self._calls = 0
        self._fail_call = fail_call
        self._fail_row = fail_row

    def _corrupt(self, sources: np.ndarray) -> np.ndarray:
        self._calls += 1
        if self._calls == self._fail_call:
            sources = sources.copy()
            row = min(self._fail_row, sources.shape[0] - 1)
            sources[row, [0, 1]] = sources[row, [1, 0]]
        return sources

    def route_frame(self, addresses):
        return self._corrupt(self._backend.route_frame(addresses)[None, :])[0]

    def route_frame_batch(self, addresses):
        return self._corrupt(self._backend.route_frame_batch(addresses))


@dataclasses.dataclass
class Scenario:
    m: int
    engine: str
    planes: int
    capacity: int
    window: int
    tenants: Optional[dict]
    starvation: int
    flaky: Optional[Tuple[int, int]]
    ops: list
    drain: bool


@st.composite
def scenarios(draw):
    m = draw(st.integers(1, 3))
    n = 1 << m
    engine = draw(st.sampled_from(["bnb", "object"]))
    tenants = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {"gold": st.integers(1, 4), "bronze": st.integers(1, 4)}
            ),
        )
    )
    tenant = (
        st.sampled_from((None, "gold", "bronze", "walkin"))
        if tenants
        else st.none()
    )
    op = st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n),
            tenant,
            st.integers(0, 3),
        ),
        st.tuples(st.just("send"), st.integers(0, n - 1), tenant),
        st.tuples(st.just("run"), st.integers(1, 6)),
        st.tuples(st.just("kill"), st.integers(0, 1)),
    )
    return Scenario(
        m=m,
        engine=engine,
        planes=draw(st.integers(1, 2)),
        capacity=draw(st.integers(1, 6)),
        window=draw(st.integers(1, 8)),
        tenants=tenants,
        starvation=draw(st.integers(1, 8)),
        flaky=(
            draw(
                st.one_of(
                    st.none(),
                    st.tuples(st.integers(1, 6), st.integers(0, 7)),
                )
            )
            if engine == "bnb"
            else None
        ),
        ops=draw(st.lists(op, min_size=1, max_size=10)),
        drain=draw(st.booleans()),
    )


class _FrameLog:
    """Observer recording every dispatched frame, plus no-op hooks."""

    def __init__(self) -> None:
        self.frames: List[Any] = []

    def on_dispatch(self, frame, plane, cycle) -> None:
        self.frames.extend(
            (plane.plane_id, cycle, row) for row in frame_rows(frame)
        )

    def on_reject(self, retry_after_cycles) -> None:
        pass

    def on_frame_delivered(self, completion, cycle, max_latencies) -> None:
        pass

    def on_requeue(self, plane, count) -> None:
        pass

    def on_plane_killed(self, plane) -> None:
        pass


def _outcome(value) -> Any:
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    if hasattr(value, "statuses"):
        return tuple(
            getattr(value, name).tolist()
            for name in ("statuses", "retry_after", "planes", "frames",
                         "latencies")
        ) + (
            [value.mode_table[k] if k >= 0 else None
             for k in value.modes.tolist()],
        )
    return (value.destination, value.plane_id, value.frame_tag,
            value.latency_cycles, value.mode, value.requeues)


def run_scenario(scenario: Scenario, oracle: bool) -> Any:
    config = GatewayConfig(
        m=scenario.m,
        planes=scenario.planes,
        queue_capacity=scenario.capacity,
        engine=scenario.engine,
        batch_window=scenario.window,
        tenants=scenario.tenants,
        starvation_cycles=scenario.starvation,
    )
    factory = None
    if scenario.flaky is not None:
        fail_call, fail_row = scenario.flaky

        def factory(plane_id, m):
            backend = (
                _FlakyBackend(m, fail_call, fail_row)
                if plane_id == 0
                else compiled_backend("bnb", m)
            )
            return BackendPlane(
                plane_id, m, backend=backend, batch_window=scenario.window
            )

    async def drive():
        gateway = AsyncGateway(config, plane_factory=factory)
        if oracle:
            gateway.voqs = OracleQueues(
                gateway.n,
                scenario.capacity,
                tenants=scenario.tenants,
                starvation_cycles=scenario.starvation,
            )
            gateway.scheduler = OracleScheduler(gateway.n)
            gateway._resolve = functools.partial(resolve_per_word, gateway)
        log = gateway.observer = _FrameLog()
        await gateway.start()
        tasks = []
        kills = []
        for op in scenario.ops:
            if op[0] == "batch":
                _, dests, tenant, retry = op
                tasks.append(
                    asyncio.ensure_future(
                        gateway.send_batch(
                            dests, retry_attempts=retry, tenant=tenant
                        )
                    )
                )
            elif op[0] == "send":
                tasks.append(
                    asyncio.ensure_future(gateway.send(op[1], tenant=op[2]))
                )
            elif op[0] == "run":
                for _ in range(op[1]):
                    await asyncio.sleep(0)
            elif op[1] < len(gateway.planes):
                kills.append(gateway.kill_plane(op[1]))
        await gateway.stop(drain=scenario.drain)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        stats = gateway.stats()
        del stats["uptime_seconds"], stats["node_id"]
        return (
            [_outcome(value) for value in outcomes],
            kills,
            log.frames,
            stats,
        )

    return asyncio.run(drive())


@settings(deadline=None)
@given(scenario=scenarios())
def test_gateway_on_array_queues_matches_the_oracle(scenario):
    array = run_scenario(scenario, oracle=False)
    oracle = run_scenario(scenario, oracle=True)
    assert array[0] == oracle[0]  # per-word BatchResult arrays, receipts
    assert array[1] == oracle[1]  # words stranded by each kill
    assert array[2] == oracle[2]  # every dispatched frame
    assert array[3] == oracle[3]  # every counter


def test_flaky_backend_requeues_through_the_oracle_too():
    """A pinned example of the misdelivery path: the flaky plane dies
    mid-window, its later frames requeue, and the survivor delivers
    everything on both queue implementations."""
    scenario = Scenario(
        m=2, engine="bnb", planes=2, capacity=4, window=4, tenants=None,
        starvation=4, flaky=(1, 1),
        ops=[("batch", [0, 1, 2, 3] * 4, None, 3), ("run", 6)],
        drain=True,
    )
    array = run_scenario(scenario, oracle=False)
    assert array == run_scenario(scenario, oracle=True)
    statuses = array[0][0][0]
    assert statuses == [1] * 16
    assert array[3]["queues"]["requeued"] > 0
    assert array[3]["planes"][0]["healthy"] is False


def test_killed_pipelined_plane_requeues_identically():
    scenario = Scenario(
        m=3, engine="object", planes=2, capacity=4, window=1,
        tenants={"gold": 3, "bronze": 1}, starvation=2, flaky=None,
        ops=[
            ("batch", list(range(8)) * 2, "gold", 2),
            ("batch", [5, 5, 5, 1], "bronze", 2),
            ("run", 3),
            ("kill", 0),
            ("run", 2),
        ],
        drain=False,
    )
    array = run_scenario(scenario, oracle=False)
    assert array == run_scenario(scenario, oracle=True)
    assert array[1][0] > 0  # the kill stranded words
    assert array[3]["queues"]["requeued"] == array[1][0]


def test_backend_plane_routes_two_offered_windows_in_one_call():
    n = 8
    voqs = VirtualOutputQueues(n, 8)
    voqs.admit_batch(np.tile(np.arange(n), 3), 0)
    scheduler = FrameScheduler(n)
    plane = BackendPlane(0, 3, batch_window=4)
    first = scheduler.next_frame(voqs, 1, 2)
    second = scheduler.next_frame(voqs, 1, plane.window - len(first))
    plane.offer(first)
    plane.offer(second)
    completed, stranded = plane.step()
    assert [(c.frame.tag, len(c.frame)) for c in completed] == [(0, 2), (2, 1)]
    assert not stranded and plane.batches_routed == 1
    assert plane.frames_delivered == 3 and plane.words_delivered == 3 * n
