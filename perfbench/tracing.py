"""Span tracing from outside the program, for the per-layer run.

:func:`instrument` replaces the public calls the serving path makes
into each layer with timing wrappers, at the attribute the caller
resolves (a class attribute for methods, the importing module's global
for ``encode_frame`` / ``decode_body`` / ``ops.dispatch``), and
:meth:`Tracer.restore` puts the originals back.  Restoring matters: the
compiled backend is an ``lru_cache``-shared object, and the classes are
shared by every gateway in the process.

Spans carry an id, their parent's id, a name, a start and an end.
The parent is the span current in the calling asyncio task (a
:class:`contextvars.ContextVar`), so concurrent requests never adopt
each other's spans.  Two kinds exist:

* **sync** spans wrap calls that never yield to the event loop
  (admission, scheduling, routing, a gateway tick, framing).  They are
  timed in thread CPU nanoseconds, so a layer is not charged for time
  the process spent descheduled on a shared machine.
* **async** spans wrap coroutines (``ops.dispatch``, gateway sends,
  ``wait_cycles``, client requests).  They are timed in wall
  nanoseconds (``perf_counter_ns``), because their point is waiting.

A span's self time is its duration minus its children's.  Coverage is
the summed duration of sync spans with no sync ancestor, over process
CPU time: the share of the loop's work the layers account for.

What each layer metric should move (checked by later changes):

==========================  ==========================================
layer metric                end-to-end metric, workload
==========================  ==========================================
voq.admit_s                 words_per_s, cpu_us_per_word: bulk-inproc;
                            p50_ms: words-open
voq.offered/rejected/       tail_ms: bulk-inproc (ratio 1.0 on
accept_ratio                bulk-wire and cluster-bulk)
scheduler.next_frame_s      words_per_s: bulk-inproc; p50_ms: words-open
backend.route_s             words_per_s: bulk-inproc, at most its share
gateway.tick_self_s         words_per_s: bulk-inproc (dispatch+resolve)
gateway.retry_wait_s        tail_ms: bulk-inproc
framing.*                   words_per_s: bulk-wire; p50_ms and
                            cpu_us_per_word: words-open (0 in-process)
ops.self_s                  p50_ms: words-open
cluster.locate_s            words_per_s: cluster-bulk
==========================  ==========================================
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

SYNC, ASYNC = 0, 1
_MISSING = object()

#: ``count(result) -> int``: work a call did, added to the tracer's
#: counter of the span's name.
WorkCount = Callable[[Any], int]


class Tracer:
    """Keeps spans in memory while wrapped calls run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.kinds: List[int] = []
        #: Flat int64 rows: span id, parent id (0 = none), name index,
        #: start ns, end ns.
        self.spans = array("q")
        self.counts: Dict[str, int] = defaultdict(int)
        self._name_index: Dict[str, int] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name(self, name: str, kind: int) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        elif self.kinds[index] != kind:
            raise ValueError(f"span {name!r} wraps sync and async calls")
        return index

    def wrap(
        self, owner: Any, attr: str, name: str, count: Optional[WorkCount] = None
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _MISSING)
        if asyncio.iscoroutinefunction(original):
            wrapper = self._async_wrapper(
                original, self._name(name, ASYNC), name, count
            )
        else:
            wrapper = self._sync_wrapper(
                original, self._name(name, SYNC), name, count
            )
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def _sync_wrapper(self, fn, index, name, count):
        current, ids, extend = self._current, self._ids, self.spans.extend
        counts, clock = self.counts, time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = next(ids)
            parent = current.get()
            token = current.set(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                extend((span, parent, index, start, end))
            if count is not None:
                counts[name] += count(result)
            return result

        return wrapper

    def _async_wrapper(self, fn, index, name, count):
        current, ids, extend = self._current, self._ids, self.spans.extend
        counts, clock = self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = next(ids)
            parent = current.get()
            token = current.set(span)
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                extend((span, parent, index, start, end))
            if count is not None:
                counts[name] += count(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def rollup(self) -> "Rollup":
        return rollup(self.spans, self.names, self.kinds)

    def save(self, path: str) -> None:
        """Write every span (and the name table) as a compressed npz."""
        np.savez_compressed(
            path,
            spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5),
            names=np.array(self.names),
            kinds=np.array(self.kinds, dtype=np.int8),
        )


class Rollup:
    """Per-name totals: ``count``, ``total_s`` and ``self_s``; plus the
    summed duration of sync spans without a sync ancestor."""

    def __init__(
        self, rows: Dict[str, Dict[str, float]], covered_s: float,
        sync_spans: int, async_spans: int,
    ) -> None:
        self.rows = rows
        self.covered_s = covered_s
        self.sync_spans = sync_spans
        self.async_spans = async_spans

    def total(self, name: str) -> float:
        return self.rows.get(name, {}).get("total_s", 0.0)

    def self_time(self, name: str) -> float:
        return self.rows.get(name, {}).get("self_s", 0.0)

    def count(self, name: str) -> int:
        return int(self.rows.get(name, {}).get("count", 0))


def rollup(flat: Any, names: List[str], kinds: List[int]) -> Rollup:
    """Self time per span name from flat ``(id, parent, name, start,
    end)`` rows.  A parent missing from the rows counts as none."""
    rows = np.asarray(flat, dtype=np.int64).reshape(-1, 5)
    if not len(rows):
        return Rollup({}, 0.0, 0, 0)
    ids, parents, name_ids = rows[:, 0], rows[:, 1], rows[:, 2]
    durations = (rows[:, 4] - rows[:, 3]).astype(np.float64) / 1e9
    order = np.argsort(ids)
    slot = np.searchsorted(ids, parents, sorter=order)
    slot = np.minimum(slot, len(ids) - 1)
    parent_row = order[slot]
    has_parent = (parents != 0) & (ids[parent_row] == parents)
    child_time = np.bincount(
        parent_row[has_parent],
        weights=durations[has_parent],
        minlength=len(rows),
    )
    self_times = durations - child_time
    kind = np.asarray(kinds, dtype=np.int64)[name_ids]
    parent_kind = np.where(has_parent, kind[parent_row], ASYNC)
    top_sync = (kind == SYNC) & (parent_kind == ASYNC)
    table: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(names):
        mine = name_ids == index
        table[name] = {
            "count": int(mine.sum()),
            "total_s": float(durations[mine].sum()),
            "self_s": float(self_times[mine].sum()),
        }
    return Rollup(
        table,
        float(durations[top_sync].sum()),
        int((kind == SYNC).sum()),
        int((kind == ASYNC).sum()),
    )


async def span_costs(calls: int = 20000, repeats: int = 3) -> Tuple[float, float]:
    """Seconds one sync and one async span add to a call, measured on a
    throwaway tracer (best of *repeats* loops of *calls*)."""

    class Probe:
        def step(self):
            return None

        async def wait(self):
            return None

    bare = Probe()
    probe = Tracer()
    traced = Probe()
    probe.wrap(traced, "step", "probe.step")
    probe.wrap(traced, "wait", "probe.wait")

    def sync_loop(target) -> float:
        call = target.step
        start = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - start

    async def async_loop(target) -> float:
        call = target.wait
        start = time.perf_counter()
        for _ in range(calls):
            await call()
        return time.perf_counter() - start

    sync_cost = min(sync_loop(traced) - sync_loop(bare) for _ in range(repeats))
    async_cost = min(
        [await async_loop(traced) - await async_loop(bare)
         for _ in range(repeats)]
    )
    return max(0.0, sync_cost / calls), max(0.0, async_cost / calls)


def instrument(tracer: Tracer) -> None:
    """Wrap the public call into every serving layer."""
    from repro import client
    from repro.backends.bnb import BNBVectorBackend
    from repro.cluster.shardmap import ShardMap
    from repro.server import ops, protocol
    from repro.server.gateway import AsyncGateway
    from repro.server.planes import BackendPlane
    from repro.server.scheduler import FrameScheduler
    from repro.server.voq import VirtualOutputQueues

    def rows_routed(sources) -> int:
        return sources.shape[0] if sources.ndim == 2 else 1

    for owner, attr, name, count in (
        (VirtualOutputQueues, "admit_batch", "voq.admit", None),
        (VirtualOutputQueues, "admit", "voq.admit", None),
        (FrameScheduler, "next_frame", "scheduler.next_frame", None),
        (BackendPlane, "step", "planes.step", None),
        (BNBVectorBackend, "route_frame_batch", "backend.route", rows_routed),
        (BNBVectorBackend, "route_frame", "backend.route", rows_routed),
        (AsyncGateway, "tick", "gateway.tick", None),
        (AsyncGateway, "wait_cycles", "gateway.retry_wait", None),
        (AsyncGateway, "send", "gateway.send", None),
        (AsyncGateway, "send_batch", "gateway.send", None),
        (protocol, "encode_frame", "framing.encode", len),
        (client, "encode_frame", "framing.encode", len),
        (protocol, "decode_body", "framing.decode", None),
        (client, "decode_body", "framing.decode", None),
        (ops, "dispatch", "ops.dispatch", None),
        (client.GatewayClient, "request", "client.request", None),
        (ShardMap, "locate_batch", "cluster.locate", None),
    ):
        tracer.wrap(owner, attr, name, count)
