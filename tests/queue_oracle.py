"""Test-only oracle: the deque-of-entries VOQ and per-frame scheduler.

This is the serving path's queueing layer as it was before the
struct-of-arrays rings: one :class:`QueueEntry` object per queued word,
one ``deque`` per destination (one per tenant class in tenant mode),
``pop_heads`` popping one frame at a time and
:func:`~repro.core.traffic.coalesce_frame` completing it.  It speaks the
same interface as :class:`repro.server.voq.VirtualOutputQueues` and
:class:`repro.server.scheduler.FrameScheduler` so the differential and
stateful tests can drive both side by side, or plug it into a gateway.

One deliberate change from the original: a tenant queue scans its
backlogged classes in tenant registration order (the original scanned
them in the order each destination first saw them), which is the
tie-break rule the rings implement.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.traffic import coalesce_frame
from repro.exceptions import AdmissionRejectedError
from repro.server.scheduler import ScheduledFrame
from repro.server.voq import (
    CLASS,
    DEFAULT_TENANT,
    ENQUEUED,
    INDEX,
    NO_TRACKER,
    REQUEUES,
    SLOT,
    WORD_FIELDS,
    validate_tenants,
)


@dataclasses.dataclass(slots=True)
class QueueEntry:
    """One admitted word: the ``(tracker, batch_index)`` pair plus its
    enqueue cycle, requeue count and tenant."""

    destination: int
    enqueued_cycle: int
    requeues: int = 0
    tracker: int = NO_TRACKER
    batch_index: int = 0
    tenant: str = DEFAULT_TENANT


class _TenantRow:
    __slots__ = (
        "weight", "offered", "accepted", "rejected", "requeued", "served",
        "rescues",
    )

    def __init__(self, weight: int) -> None:
        self.weight = weight
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.requeued = 0
        self.served = 0
        self.rescues = 0


class _TenantState:
    __slots__ = ("rows", "starvation_cycles")

    def __init__(
        self, weights: Mapping[str, int], starvation_cycles: int
    ) -> None:
        self.rows: Dict[str, _TenantRow] = {
            name: _TenantRow(weight) for name, weight in weights.items()
        }
        self.starvation_cycles = starvation_cycles

    def row(self, tenant: str) -> _TenantRow:
        row = self.rows.get(tenant)
        if row is None:
            row = self.rows[tenant] = _TenantRow(1)
        return row


class _TenantQueue:
    """One destination's per-tenant FIFOs, drained by smoothed weighted
    round-robin with a starvation age override (the deque interface
    slice the VOQ uses)."""

    __slots__ = ("_state", "_fifos", "_credit", "_len")

    def __init__(self, state: _TenantState) -> None:
        self._state = state
        self._fifos: Dict[str, Deque[QueueEntry]] = {}
        self._credit: Dict[str, int] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self):
        for tenant in self._fifos:
            yield from self._fifos[tenant]

    def _fifo(self, tenant: str) -> Deque[QueueEntry]:
        fifo = self._fifos.get(tenant)
        if fifo is None:
            fifo = self._fifos[tenant] = deque()
            self._credit[tenant] = 0
        return fifo

    def append(self, entry: QueueEntry) -> None:
        self._fifo(entry.tenant).append(entry)
        self._len += 1

    def appendleft(self, entry: QueueEntry) -> None:
        self._fifo(entry.tenant).appendleft(entry)
        self._len += 1

    def clear(self) -> None:
        for fifo in self._fifos.values():
            fifo.clear()
        self._len = 0

    def tenant_depths(self) -> Dict[str, int]:
        return {
            tenant: len(fifo) for tenant, fifo in self._fifos.items() if fifo
        }

    def popleft(self) -> QueueEntry:
        if not self._len:
            raise IndexError("pop from an empty tenant queue")
        state = self._state
        fifos = self._fifos
        backlogged = [
            tenant for tenant in state.rows if fifos.get(tenant)
        ]
        if len(backlogged) == 1:
            pick = backlogged[0]
        else:
            rows = state.rows
            credit = self._credit
            total = 0
            pick = backlogged[0]
            best: Optional[int] = None
            for tenant in backlogged:
                weight = rows[tenant].weight
                total += weight
                value = credit[tenant] + weight
                credit[tenant] = value
                if best is None or value > best:
                    best = value
                    pick = tenant
            oldest = min(
                backlogged,
                key=lambda tenant: fifos[tenant][0].enqueued_cycle,
            )
            if (
                oldest != pick
                and fifos[oldest][0].enqueued_cycle + state.starvation_cycles
                < fifos[pick][0].enqueued_cycle
            ):
                state.rows[oldest].rescues += 1
                pick = oldest
            credit[pick] -= total
        fifo = fifos[pick]
        entry = fifo.popleft()
        if not fifo:
            self._credit[pick] = 0
        self._len -= 1
        state.rows[pick].served += 1
        return entry


class OracleQueues:
    """``n`` bounded deques of :class:`QueueEntry`, round-robin head pick."""

    def __init__(
        self,
        n: int,
        capacity: int,
        tenants: Optional[Mapping[str, int]] = None,
        starvation_cycles: int = 1024,
    ) -> None:
        validate_tenants(tenants, starvation_cycles)
        self.n = n
        self.capacity = capacity
        if tenants is None:
            self._tenant_state: Optional[_TenantState] = None
            self._queues: List[Any] = [deque() for _ in range(n)]
        else:
            self._tenant_state = _TenantState(tenants, starvation_cycles)
            self._queues = [
                _TenantQueue(self._tenant_state) for _ in range(n)
            ]
        self._rr_start = 0
        self._queued = 0
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.requeued = 0
        self.max_depth = 0

    @property
    def tenants(self) -> Optional[Dict[str, int]]:
        if self._tenant_state is None:
            return None
        return {
            name: row.weight for name, row in self._tenant_state.rows.items()
        }

    @property
    def class_names(self) -> List[str]:
        if self._tenant_state is None:
            return []
        return list(self._tenant_state.rows)

    def _class(self, tenant: str) -> int:
        return self.class_names.index(tenant) if self.class_names else 0

    # -- admission -------------------------------------------------------
    def admit(
        self,
        destination: int,
        cycle: int,
        *,
        tenant: str = DEFAULT_TENANT,
        tracker: int = NO_TRACKER,
        index: int = 0,
    ) -> None:
        if not 0 <= destination < self.n:
            raise AdmissionRejectedError(destination, 0, 0)
        _admitted, rejected, hints = self.admit_batch(
            [destination], cycle, tracker, [index], tenant
        )
        if rejected.size:
            raise AdmissionRejectedError(
                destination, int(hints[0]), int(hints[0])
            )

    def admit_batch(
        self,
        dests: Any,
        cycle: int,
        tracker: int = NO_TRACKER,
        indices: Any = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        dests = [int(dest) for dest in dests]
        indices = (
            list(range(len(dests)))
            if indices is None
            else [int(index) for index in indices]
        )
        admitted = 0
        rejected: List[int] = []
        hints: List[int] = []
        for dest, index in zip(dests, indices):
            queue = self._queues[dest]
            depth = len(queue)
            if depth < self.capacity:
                queue.append(
                    QueueEntry(dest, cycle, 0, tracker, index, tenant)
                )
                admitted += 1
                self.max_depth = max(self.max_depth, depth + 1)
            else:
                rejected.append(index)
                hints.append(depth)
        offered = admitted + len(rejected)
        self.offered += offered
        self.accepted += admitted
        self.rejected += len(rejected)
        self._queued += admitted
        if self._tenant_state is not None:
            row = self._tenant_state.row(tenant)
            row.offered += offered
            row.accepted += admitted
            row.rejected += len(rejected)
        return (
            admitted,
            np.array(rejected, dtype=np.int64),
            np.array(hints, dtype=np.int64),
        )

    def requeue_front(self, dests: np.ndarray, words: np.ndarray) -> None:
        names = self.class_names or [DEFAULT_TENANT]
        entries = [
            QueueEntry(
                destination=int(dest),
                enqueued_cycle=int(word[ENQUEUED]),
                requeues=int(word[REQUEUES]),
                tracker=int(word[SLOT]),
                batch_index=int(word[INDEX]),
                tenant=names[int(word[CLASS])],
            )
            for dest, word in zip(dests.tolist(), words)
        ]
        for entry in reversed(entries):
            entry.requeues += 1
            self._queues[entry.destination].appendleft(entry)
            self.requeued += 1
            self._queued += 1
            if self._tenant_state is not None:
                self._tenant_state.row(entry.tenant).requeued += 1
            self.max_depth = max(
                self.max_depth, len(self._queues[entry.destination])
            )

    # -- draining --------------------------------------------------------
    def pop_heads(self, limit: Optional[int] = None) -> List[QueueEntry]:
        """Pop the head word of up to *limit* distinct non-empty queues,
        scanning from the round-robin start."""
        if limit is None:
            limit = self.n
        picked: List[QueueEntry] = []
        order = list(range(self._rr_start, self.n)) + list(
            range(self._rr_start)
        )
        for dest in order:
            if len(picked) >= limit:
                break
            queue = self._queues[dest]
            if queue:
                picked.append(queue.popleft())
        self._rr_start = (self._rr_start + 1) % self.n
        self._queued -= len(picked)
        return picked

    # -- introspection ---------------------------------------------------
    def depth(self, destination: int) -> int:
        return len(self._queues[destination])

    @property
    def total(self) -> int:
        return self._queued

    def depths(self) -> List[int]:
        return [len(queue) for queue in self._queues]

    def dest_depths(self) -> np.ndarray:
        return np.array(self.depths(), dtype=np.int64)

    def queued_entries(self) -> List[List[QueueEntry]]:
        """Every destination's entries, head first (tenant FIFOs in
        registration order)."""
        return [list(queue) for queue in self._queues]

    def drain_all(self) -> int:
        dropped = self._queued
        for queue in self._queues:
            queue.clear()
        self._queued = 0
        return dropped

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        state = self._tenant_state
        if state is None:
            return None
        queued: Dict[str, int] = {}
        for queue in self._queues:
            for tenant, depth in queue.tenant_depths().items():
                queued[tenant] = queued.get(tenant, 0) + depth
        return {
            tenant: {
                "weight": row.weight,
                "queued": queued.get(tenant, 0),
                "served": row.served,
                "starvation_rescues": row.rescues,
                "offered": row.offered,
                "accepted": row.accepted,
                "rejected": row.rejected,
                "requeued": row.requeued,
            }
            for tenant, row in state.rows.items()
        }

    def snapshot(self) -> Dict[str, Any]:
        depths = self.depths()
        snap = {
            "capacity": self.capacity,
            "queued": sum(depths),
            "depths": depths,
            "max_depth": self.max_depth,
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "requeued": self.requeued,
        }
        tenants = self.tenant_snapshot()
        if tenants is not None:
            snap["tenants"] = tenants
        return snap


class OracleScheduler:
    """One ``pop_heads`` + ``coalesce_frame`` per frame, packed into the
    array :class:`ScheduledFrame` the planes take."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.frames_scheduled = 0
        self.words_scheduled = 0
        self._next_tag = 0

    def next_frame(
        self, voqs: OracleQueues, cycle: int, window: int = 1
    ) -> Optional[ScheduledFrame]:
        n = self.n
        rows = []
        while len(rows) < window and voqs.total:
            rows.append(voqs.pop_heads(n))
        if not rows:
            return None
        addresses = np.zeros((len(rows), n), dtype=np.int64)
        active = np.zeros(len(rows), dtype=np.int64)
        words = np.zeros((len(rows), n, WORD_FIELDS), dtype=np.int64)
        for row, entries in enumerate(rows):
            plan = coalesce_frame([entry.destination for entry in entries], n)
            addresses[row] = plan.addresses
            active[row] = len(entries)
            for line, entry in enumerate(entries):
                assert plan.line_of[entry.destination] == line
                words[row, line] = (
                    entry.tracker,
                    entry.batch_index,
                    entry.enqueued_cycle,
                    entry.requeues,
                    voqs._class(entry.tenant),
                )
        tag = self._next_tag
        self._next_tag += len(rows)
        self.frames_scheduled += len(rows)
        self.words_scheduled += int(active.sum())
        return ScheduledFrame(tag, cycle, addresses, active, words)

    @property
    def mean_fill(self) -> float:
        if not self.frames_scheduled:
            return 0.0
        return self.words_scheduled / (self.frames_scheduled * self.n)

    def snapshot(self) -> Dict[str, float]:
        return {
            "frames": self.frames_scheduled,
            "words": self.words_scheduled,
            "mean_fill": self.mean_fill,
        }


def resolve_per_word(gateway: Any, completion: Any) -> None:
    """The gateway's per-word resolution before window resolution: one
    frame at a time, one Python step per word, grouped by tracker.
    Install with ``gateway._resolve = functools.partial(
    resolve_per_word, gateway)``."""
    frame = completion.frame
    mode = completion.mode
    cycle = gateway.cycle
    names = gateway.voqs.class_names
    for row in range(len(frame)):
        tag = frame.tag + row
        active = int(frame.active[row])
        gateway.delivered_frames += 1
        gateway._mode_counts[mode] = gateway._mode_counts.get(mode, 0) + 1
        gateway.delivered_words += active
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        worst = 0
        for line in range(active):
            slot, index, enqueued, _requeues, cls = frame.words[
                row, line
            ].tolist()
            latency = cycle - enqueued
            worst = max(worst, latency)
            gateway._latencies.append(latency)
            if gateway._tenant_latencies is not None:
                tenant = names[cls]
                gateway._tenant_latencies.setdefault(tenant, []).append(
                    latency
                )
                gateway._tenant_delivered[tenant] = (
                    gateway._tenant_delivered.get(tenant, 0) + 1
                )
            if slot in gateway._trackers:
                indices, latencies = groups.setdefault(slot, ([], []))
                indices.append(index)
                latencies.append(latency)
        for slot, (indices, latencies) in groups.items():
            tracker = gateway._trackers[slot]
            result = tracker.result
            result.statuses[indices] = 1
            result.planes[indices] = completion.plane_id
            result.frames[indices] = tag
            result.latencies[indices] = latencies
            result.modes[indices] = result.mode_index(mode)
            tracker.pending -= len(indices)
            if (
                tracker.pending == 0
                and not tracker.open
                and not tracker.future.done()
            ):
                tracker.future.set_result(result)
        if gateway.observer is not None:
            gateway.observer.on_frame_delivered(
                type(completion)(
                    frame=frame.rows(row, row + 1),
                    plane_id=completion.plane_id,
                    mode=mode,
                ),
                cycle,
                np.array([worst]),
            )
        window = gateway.config.latency_window
        for samples in [gateway._latencies] + list(
            (gateway._tenant_latencies or {}).values()
        ):
            if len(samples) > 2 * window:
                del samples[:-window]
