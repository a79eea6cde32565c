"""Virtual output queues with bounded-depth admission control.

One FIFO per destination (the classic VOQ arrangement that defeats
head-of-line blocking: a burst for output 3 never delays a word for
output 5).  Depth is bounded — an arrival to a full queue is **rejected
at admission** with a retry-after hint instead of buffered, so offered
load beyond capacity degrades into client-visible backpressure rather
than unbounded memory growth.

With ``tenants`` configured, each destination's FIFO splits into one
sub-FIFO per tenant class and the head pick becomes smoothed weighted
round-robin over the backlogged classes (:class:`_TenantQueue`) — the
deficit-style scheduler that gives a weight-8 tenant 8× the service of
a weight-1 tenant sharing the same hot output, plus an age override so
no class can be starved past ``starvation_cycles`` of relative delay.
The default (``tenants=None``) keeps the original plain-deque hot path
untouched.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..exceptions import AdmissionRejectedError

__all__ = ["DEFAULT_TENANT", "QueueEntry", "VirtualOutputQueues"]

#: Tenant class words belong to when the sender names none.
DEFAULT_TENANT = "default"


def validate_tenants(
    tenants: Optional[Mapping[str, int]], starvation_cycles: int
) -> None:
    """Reject a bad tenant-weight map or starvation bound with
    ``ValueError`` — shared by :class:`VirtualOutputQueues` and
    :class:`~repro.server.gateway.GatewayConfig`."""
    if starvation_cycles < 1:
        raise ValueError(
            f"starvation_cycles must be >= 1, got {starvation_cycles}"
        )
    if tenants is None:
        return
    if not tenants:
        raise ValueError("tenants must name at least one class")
    for name, weight in tenants.items():
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"tenant names must be non-empty strings, got {name!r}"
            )
        if (
            not isinstance(weight, int)
            or isinstance(weight, bool)
            or weight < 1
        ):
            raise ValueError(
                f"tenant {name!r} needs an integer weight >= 1, "
                f"got {weight!r}"
            )


@dataclasses.dataclass(slots=True)
class QueueEntry:
    """One admitted word waiting for (or riding) a frame.

    ``future`` is set by the asyncio gateway so the submitting client
    can await the delivery receipt; the synchronous benchmark harness
    leaves it ``None``.  Words admitted through the batch path carry
    their batch tracker in ``batch`` and their position in the batch in
    ``batch_index`` instead of a per-word future — delivery fills the
    tracker's preallocated result arrays at ``batch_index`` and the
    tracker's single future fires when the whole batch has landed.
    (Two plain fields, not a tuple: the admission loop builds one entry
    per word, so even a tuple allocation shows up at full load.)
    """

    destination: int
    payload: Any
    enqueued_cycle: int
    future: Any = None
    requeues: int = 0
    batch: Any = None
    batch_index: int = 0
    tenant: str = DEFAULT_TENANT


class _TenantState:
    """Tenant registry shared by every destination's :class:`_TenantQueue`.

    Weights are global (a tenant has one weight, not one per output);
    the service/rescue counters feed the fairness accounting surfaced
    in ``stats`` and the ``repro_tenant_*`` metrics.  Tenants unknown at
    construction auto-register with weight 1 on their first word, so a
    misconfigured client degrades to best-effort instead of erroring.
    """

    __slots__ = ("weights", "starvation_cycles", "served", "rescues")

    def __init__(
        self, weights: Mapping[str, int], starvation_cycles: int
    ) -> None:
        self.weights: Dict[str, int] = dict(weights)
        self.starvation_cycles = starvation_cycles
        self.served: Dict[str, int] = {name: 0 for name in self.weights}
        self.rescues: Dict[str, int] = {name: 0 for name in self.weights}

    def ensure(self, tenant: str) -> None:
        if tenant not in self.weights:
            self.weights[tenant] = 1
            self.served[tenant] = 0
            self.rescues[tenant] = 0


class _TenantQueue:
    """One destination's queue in tenant mode: per-tenant FIFOs drained
    by smoothed weighted round-robin with a starvation age override.

    Mimics exactly the slice of the ``deque`` interface the VOQ uses
    (``append``/``appendleft``/``popleft``/``clear``/``len``/iteration)
    so every other code path — head picking, requeue, drain, depth
    accounting — is identical between the two modes.

    The pick is nginx-style smoothed weighted round-robin over the
    *backlogged* tenants: each pick credits every backlogged tenant its
    weight, serves the largest credit, and debits the winner by the
    total — interleaving service proportionally to weight instead of
    bursting.  Credits reset when a tenant's FIFO empties (plain DRR
    semantics: an idle tenant banks nothing).  Before committing to the
    weighted pick, the oldest head across tenants is checked: if it has
    waited ``starvation_cycles`` longer than the pick's head, it is
    served instead and the rescue is counted — a hard bound on relative
    delay even under pathological weight ratios.
    """

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
            self._state.ensure(tenant)
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
            tenant: len(fifo)
            for tenant, fifo in self._fifos.items()
            if fifo
        }

    def popleft(self) -> QueueEntry:
        if not self._len:
            raise IndexError("pop from an empty tenant queue")
        state = self._state
        fifos = self._fifos
        backlogged = [tenant for tenant, fifo in fifos.items() if fifo]
        if len(backlogged) == 1:
            pick = backlogged[0]
        else:
            weights = state.weights
            credit = self._credit
            total = 0
            pick = backlogged[0]
            best: Optional[int] = None
            for tenant in backlogged:
                weight = weights[tenant]
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
                state.rescues[oldest] += 1
                pick = oldest
            credit[pick] -= total
        fifo = fifos[pick]
        entry = fifo.popleft()
        if not fifo:
            self._credit[pick] = 0
        self._len -= 1
        state.served[pick] += 1
        return entry


class VirtualOutputQueues:
    """``n`` bounded FIFOs, one per output, with round-robin head pick.

    The round-robin start pointer makes :meth:`pop_heads` fair: when
    more than ``limit`` destinations have backlog, successive frames
    rotate which destinations ride first instead of always favouring
    low-numbered outputs.
    """

    def __init__(
        self,
        n: int,
        capacity: int,
        tenants: Optional[Mapping[str, int]] = None,
        starvation_cycles: int = 1024,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one output queue, got n={n}")
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        validate_tenants(tenants, starvation_cycles)
        self.n = n
        self.capacity = capacity
        if tenants is None:
            self._tenant_state: Optional[_TenantState] = None
            self._tenant_admission: Optional[Dict[str, Dict[str, int]]] = None
            self._queues: List[Deque[QueueEntry]] = [
                deque() for _ in range(n)
            ]
        else:
            self._tenant_state = _TenantState(tenants, starvation_cycles)
            self._tenant_admission = {
                name: {"offered": 0, "accepted": 0, "rejected": 0,
                       "requeued": 0}
                for name in tenants
            }
            self._queues = [
                _TenantQueue(self._tenant_state) for _ in range(n)
            ]
        self._rr_start = 0
        self._queued = 0  # maintained so ``total`` is O(1) on the hot path
        # Admission counters (offered = accepted + rejected).
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.requeued = 0
        self.max_depth = 0

    @property
    def tenants(self) -> Optional[Dict[str, int]]:
        """Live tenant weights (including auto-registered ones), or
        ``None`` when tenant scheduling is off."""
        if self._tenant_state is None:
            return None
        return dict(self._tenant_state.weights)

    def _tenant_row(self, tenant: str) -> Dict[str, int]:
        assert self._tenant_admission is not None
        row = self._tenant_admission.get(tenant)
        if row is None:
            row = self._tenant_admission[tenant] = {
                "offered": 0, "accepted": 0, "rejected": 0, "requeued": 0
            }
        return row

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, entry: QueueEntry) -> None:
        """Enqueue *entry* or raise :class:`AdmissionRejectedError`.

        The retry-after hint is the queue's current depth: the fabric
        drains at most one word per destination per frame, so a full
        queue needs at least ``depth`` cycles before a slot frees.
        """
        rejection = self.try_admit(entry)
        if rejection is not None:
            raise rejection

    def try_admit(self, entry: QueueEntry) -> Optional[AdmissionRejectedError]:
        """Enqueue *entry*; return the rejection instead of raising.

        The batch admission loop calls this once per word — building
        and unwinding an exception per rejected word would dominate an
        overloaded batch's cost, so rejections come back as values.
        """
        self.offered += 1
        row = (
            self._tenant_row(entry.tenant)
            if self._tenant_admission is not None
            else None
        )
        if row is not None:
            row["offered"] += 1
        if not 0 <= entry.destination < self.n:
            self.rejected += 1
            if row is not None:
                row["rejected"] += 1
            return AdmissionRejectedError(entry.destination, 0, 0)
        queue = self._queues[entry.destination]
        depth = len(queue)
        if depth >= self.capacity:
            self.rejected += 1
            if row is not None:
                row["rejected"] += 1
            return AdmissionRejectedError(entry.destination, depth, depth)
        queue.append(entry)
        self.accepted += 1
        if row is not None:
            row["accepted"] += 1
        self._queued += 1
        if depth + 1 > self.max_depth:
            self.max_depth = depth + 1
        return None

    def admit_batch(
        self,
        dests: List[int],
        payloads: Optional[List[Any]],
        cycle: int,
        tracker: Any,
        retry_after: Any,
        indices: Any,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[int, List[int]]:
        """Admit the batch words at *indices*; return ``(admitted, rejected)``.

        The whole admission loop lives here so the per-word cost is a
        capacity check and a deque append with every lookup hoisted —
        no per-word method call, no per-word exception.  Rejected
        indices get their depth written into the *retry_after* array
        (the same hint :meth:`admit` raises); accepted indices are
        **not** cleared — the caller zeroes the hints of any indices it
        re-offers (a fresh batch's array starts zeroed), keeping the
        accept path free of per-word numpy stores.  The caller owns
        observer notification and any retry rounds.  Destinations must
        already be range-checked (the gateway validates the whole array
        in one vectorized pass).
        """
        queues = self._queues
        capacity = self.capacity
        max_depth = self.max_depth
        entry_cls = QueueEntry
        admitted = 0
        rejected: List[int] = []
        rejected_append = rejected.append
        if payloads is None:
            for index in indices:
                dest = dests[index]
                queue = queues[dest]
                depth = len(queue)
                if depth < capacity:
                    queue.append(
                        entry_cls(
                            dest, None, cycle, None, 0, tracker, index,
                            tenant,
                        )
                    )
                    admitted += 1
                    if depth >= max_depth:
                        max_depth = depth + 1
                else:
                    retry_after[index] = depth
                    rejected_append(index)
        else:
            for index in indices:
                dest = dests[index]
                queue = queues[dest]
                depth = len(queue)
                if depth < capacity:
                    queue.append(
                        entry_cls(
                            dest, payloads[index], cycle, None, 0,
                            tracker, index, tenant,
                        )
                    )
                    admitted += 1
                    if depth >= max_depth:
                        max_depth = depth + 1
                else:
                    retry_after[index] = depth
                    rejected_append(index)
        self.max_depth = max_depth
        offered = admitted + len(rejected)
        self.offered += offered
        self.accepted += admitted
        self.rejected += len(rejected)
        self._queued += admitted
        if self._tenant_admission is not None:
            row = self._tenant_row(tenant)
            row["offered"] += offered
            row["accepted"] += admitted
            row["rejected"] += len(rejected)
        return admitted, rejected

    def requeue_front(self, entries: List[QueueEntry]) -> None:
        """Put already-admitted entries back at the head of their queues.

        Used when a plane dies with frames in flight: the words were
        admitted once and must not be re-rejected, so this may push a
        queue transiently above capacity (new admissions still bounce
        until it drains).
        """
        for entry in reversed(entries):
            entry.requeues += 1
            self._queues[entry.destination].appendleft(entry)
            self.requeued += 1
            self._queued += 1
            if self._tenant_admission is not None:
                self._tenant_row(entry.tenant)["requeued"] += 1
            self.max_depth = max(
                self.max_depth, len(self._queues[entry.destination])
            )

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_heads(self, limit: Optional[int] = None) -> List[QueueEntry]:
        """Pop the head word of up to *limit* distinct non-empty queues.

        By construction the result has pairwise-distinct destinations —
        exactly the conflict-free partial traffic one frame can carry.
        """
        if limit is None:
            limit = self.n
        picked: List[QueueEntry] = []
        if limit > 0:
            append = picked.append
            queues = self._queues
            start = self._rr_start
            # Two straight slices instead of a modulo per destination.
            for queue in queues[start:]:
                if queue:
                    append(queue.popleft())
                    if len(picked) >= limit:
                        break
            else:
                for queue in queues[:start]:
                    if queue:
                        append(queue.popleft())
                        if len(picked) >= limit:
                            break
        self._rr_start = (self._rr_start + 1) % self.n
        self._queued -= len(picked)
        return picked

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self, destination: int) -> int:
        return len(self._queues[destination])

    @property
    def total(self) -> int:
        return self._queued

    def depths(self) -> List[int]:
        return [len(queue) for queue in self._queues]

    def drain_all(self) -> List[QueueEntry]:
        """Remove and return every queued entry (gateway shutdown)."""
        stranded: List[QueueEntry] = []
        for queue in self._queues:
            stranded.extend(queue)
            queue.clear()
        self._queued = 0
        return stranded

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Per-tenant fairness accounting, or ``None`` when tenants are off.

        ``served`` counts scheduler pops (words placed onto frames) and
        ``rescues`` counts starvation-override picks — a non-zero rescue
        count is the signal that one class was held off long enough for
        the age guard to intervene.
        """
        state = self._tenant_state
        if state is None or self._tenant_admission is None:
            return None
        queued: Dict[str, int] = {name: 0 for name in state.weights}
        for queue in self._queues:
            for tenant, depth in queue.tenant_depths().items():  # type: ignore[union-attr]
                queued[tenant] = queued.get(tenant, 0) + depth
        rows: Dict[str, Dict[str, Any]] = {}
        for tenant in state.weights:
            admission = self._tenant_row(tenant)
            rows[tenant] = {
                "weight": state.weights[tenant],
                "queued": queued.get(tenant, 0),
                "served": state.served[tenant],
                "starvation_rescues": state.rescues[tenant],
                **admission,
            }
        return rows

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

    def __repr__(self) -> str:
        return (
            f"VirtualOutputQueues(n={self.n}, capacity={self.capacity}, "
            f"queued={self.total})"
        )
