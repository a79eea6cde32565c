"""Virtual output queues: struct-of-arrays rings with bounded admission.

One FIFO per destination (the classic VOQ arrangement that defeats
head-of-line blocking: a burst for output 3 never delays a word for
output 5).  Depth is bounded — an arrival to a full queue is **rejected
at admission** with a retry-after hint instead of buffered, so offered
load beyond capacity degrades into client-visible backpressure rather
than unbounded memory growth.

The queues hold no Python object per word.  A queued word is one row
of :data:`WORD_FIELDS` int64s — tracker slot, batch index, enqueued
cycle, requeue count and class — in a single ring array of shape
``(classes, n, ring, WORD_FIELDS)``, with ``head`` and ``depth``
vectors of shape ``(classes, n)``.  An untenanted VOQ has one class.
Every operation is a fixed number of numpy passes over a batch or a
window, never a loop over words:

* :meth:`VirtualOutputQueues.admit_batch` — ``bincount`` the
  destinations, rank each word stably within its destination, accept
  ranks below the free slots, scatter the accepted rows into the rings;
* :meth:`VirtualOutputQueues.pop_frames` — pop a whole window of
  frames (frame ``j`` takes the head of every destination with
  ``depth > j``) in one gather, laid out on the lines the
  :class:`~repro.server.scheduler.FrameScheduler` chose;
* :meth:`VirtualOutputQueues.requeue_front` — put a dead plane's
  stranded words back at the heads, growing the ring on that rare path
  when a queue must exceed ``capacity``.

With ``tenants`` configured, each tenant class is its own ring and the
head pick at a destination is smoothed weighted round-robin over the
backlogged classes — the deficit-style scheduler that gives a weight-8
tenant 8× the service of a weight-1 tenant sharing the same hot output
— plus an age override so no class can be starved past
``starvation_cycles`` of relative delay.  The pick runs vectorized
across destinations, once per frame; ties in credit (and in age) go to
the class registered first.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import AdmissionRejectedError, InputError

__all__ = [
    "DEFAULT_TENANT",
    "MAX_TENANT_CLASSES",
    "NO_TRACKER",
    "VirtualOutputQueues",
    "WORD_FIELDS",
    "destination_array",
]

#: Tenant class words belong to when the sender names none.
DEFAULT_TENANT = "default"

#: Most tenant classes one VOQ holds, configured and auto-registered
#: together.  Every class owns a ring per destination and is scanned on
#: every frame, so a client inventing a new tenant name per request
#: must hit this bound instead of growing server memory and per-frame
#: work without limit.
MAX_TENANT_CLASSES = 16

#: Columns of a queued word: the last axis of the rings and of a
#: :class:`~repro.server.scheduler.ScheduledFrame`'s ``words``.
SLOT, INDEX, ENQUEUED, REQUEUES, CLASS = range(5)
WORD_FIELDS = 5

#: Tracker slot of a word admitted with no batch tracker behind it
#: (the synchronous benchmark harness admits words this way).
NO_TRACKER = -1

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


def destination_array(values: Any, name: str = "destinations") -> np.ndarray:
    """*values* as a one-dimensional int64 array, or :class:`InputError`.

    The one check every entry point into the rings shares (the
    gateway's ``send`` / ``send_batch`` and both clients' ``send_batch``):
    float, bool and object input is refused instead of truncated, so
    ``[1.5, 2.7]`` can never ride the fabric as outputs 1 and 2.  An
    empty sequence is an empty batch.  Range checks are the caller's.
    """
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as error:
        raise InputError(f"{name} must be integers: {error}") from None
    if array.dtype.kind not in "iu" and array.size:
        raise InputError(
            f"{name} must be integers, got {array.dtype} values"
        )
    if array.ndim != 1:
        raise InputError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    return np.ascontiguousarray(array, dtype=np.int64)


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
    if len(tenants) > MAX_TENANT_CLASSES:
        raise ValueError(
            f"at most {MAX_TENANT_CLASSES} tenant classes, got {len(tenants)}"
        )
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


class _TenantRow:
    """One tenant's weight plus its admission and service counters."""

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


def _ranks(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stable rank of each key among the equal keys before it."""
    order = np.argsort(keys, kind="stable")
    starts = np.cumsum(counts) - counts
    ranks = np.empty(keys.shape[0], dtype=np.int64)
    ranks[order] = np.arange(keys.shape[0]) - starts[keys[order]]
    return ranks


class VirtualOutputQueues:
    """``n`` bounded FIFOs, one per output (per class), as int64 rings.

    ``capacity`` bounds the words queued for one destination across
    all classes.  The rings are allocated at construction, one slot per
    unit of capacity; only :meth:`requeue_front` (a plane died with
    words in flight) can grow them.  A tenant unknown at construction
    registers as a new class with weight 1 the first time one of its
    words is offered — accepted or not — so a misconfigured client
    degrades to best-effort instead of erroring, and its rejected words
    still show up in ``stats`` and the ``repro_tenant_*`` metrics.
    Past :data:`MAX_TENANT_CLASSES` classes a new name is refused with
    :class:`InputError`.
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
        self.starvation_cycles = starvation_cycles
        #: Tenant rows indexed by class (registration order), or
        #: ``None`` when tenant scheduling is off.
        self._rows: Optional[List[_TenantRow]] = (
            None
            if tenants is None
            else [_TenantRow(weight) for weight in tenants.values()]
        )
        self._class_of: Dict[str, int] = {
            name: index for index, name in enumerate(tenants or ())
        }
        classes = max(1, len(self._class_of))
        # Slots past a queue's depth are never read unmasked, so the
        # rings need no zeroing (a zeroed ring would cost a memset of
        # the whole table at every gateway start).
        self._ring = np.empty((classes, n, capacity, WORD_FIELDS), np.int64)
        self._head, self._depth, self._credit = np.zeros(
            (3, classes, n), dtype=np.int64
        )
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
        if self._rows is None:
            return None
        return {
            name: row.weight for name, row in zip(self._class_of, self._rows)
        }

    @property
    def class_names(self) -> List[str]:
        """Tenant name of each class, in class order (empty untenanted)."""
        return list(self._class_of)

    def _class(self, tenant: str) -> int:
        """The class of *tenant*, registering it on first sight."""
        if self._rows is None:
            return 0
        index = self._class_of.get(tenant)
        if index is None:
            if len(self._rows) == MAX_TENANT_CLASSES:
                raise InputError(
                    f"tenant {tenant!r} refused: this gateway already "
                    f"serves {MAX_TENANT_CLASSES} tenant classes"
                )
            index = self._class_of[tenant] = len(self._rows)
            self._rows.append(_TenantRow(1))
            self._ring = np.concatenate(
                [self._ring, np.empty_like(self._ring[:1])]
            )
            for name in ("_head", "_depth", "_credit"):
                grid = getattr(self, name)
                setattr(self, name, np.vstack([grid, np.zeros_like(grid[:1])]))
        return index

    def dest_depths(self) -> np.ndarray:
        """Words queued per destination, over every class (a fresh array)."""
        return self._depth.sum(axis=0)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        destination: int,
        cycle: int,
        *,
        tenant: str = DEFAULT_TENANT,
        tracker: int = NO_TRACKER,
        index: int = 0,
    ) -> None:
        """Enqueue one word or raise :class:`AdmissionRejectedError`.

        A one-word call into :meth:`admit_batch`: the word is position
        *index* of the batch in tracker slot *tracker*, enqueued at
        *cycle*.  The retry-after hint is the queue's current depth: the
        fabric drains at most one word per destination per frame, so a
        full queue needs at least ``depth`` cycles before a slot frees.
        A destination with no queue is rejected without being counted
        as offered.
        """
        if not 0 <= destination < self.n:
            raise AdmissionRejectedError(destination, 0, 0)
        _admitted, rejected, hints = self.admit_batch(
            np.array([destination], dtype=np.int64),
            cycle,
            tracker,
            np.array([index], dtype=np.int64),
            tenant,
        )
        if rejected.size:
            hint = int(hints[0])
            raise AdmissionRejectedError(destination, hint, hint)

    def admit_batch(
        self,
        dests: Any,
        cycle: int,
        tracker: int = NO_TRACKER,
        indices: Any = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Admit words in one pass; return ``(admitted, rejected, hints)``.

        ``dests[k]`` is the destination of the word at batch position
        ``indices[k]`` (``indices`` defaults to ``0..len(dests)-1``);
        accepted words queue as ``(tracker, index)`` rows in arrival
        order.  A destination accepts as many words as it has free
        slots, first come first served; ``rejected`` lists the batch
        indices of the rest and ``hints`` their retry-after cycles —
        the depth :meth:`admit` raises, ``max(depth, capacity)``.
        Destinations must already be range-checked (the gateway
        validates the whole array in one vectorized pass).  The caller
        owns observer notification and any retry rounds.
        """
        dests = np.asarray(dests, dtype=np.int64)
        count = dests.shape[0]
        indices = (
            np.arange(count, dtype=np.int64)
            if indices is None
            else np.asarray(indices, dtype=np.int64)
        )
        cls = self._class(tenant)
        per_dest = np.bincount(dests, minlength=self.n)
        before = self.dest_depths()
        # A requeue can leave a queue above capacity: no free slots.
        free = np.maximum(self.capacity - before, 0)
        ranks = _ranks(dests, per_dest)
        accept = ranks < free[dests]
        taken = np.minimum(per_dest, free)
        accepted_dests = dests[accept]
        rejected = indices[~accept]
        hints = np.maximum(before[dests[~accept]], self.capacity)
        admitted = accepted_dests.shape[0]
        if admitted:
            ring = self._ring[cls]
            depth = self._depth[cls]
            slots = (
                self._head[cls, accepted_dests]
                + depth[accepted_dests]
                + ranks[accept]
            ) % ring.shape[1]
            rows = np.empty((admitted, WORD_FIELDS), dtype=np.int64)
            rows[:] = (tracker, 0, cycle, 0, cls)  # the WORD_FIELDS order
            rows[:, INDEX] = indices[accept]
            ring[accepted_dests, slots] = rows
            depth += taken
            # Every queue's depth is already within max_depth, so the
            # deepest queue after this batch is the only candidate.
            self.max_depth = max(self.max_depth, int((before + taken).max()))
        self.offered += count
        self.accepted += admitted
        self.rejected += count - admitted
        self._queued += admitted
        if self._rows is not None:
            row = self._rows[cls]
            row.offered += count
            row.accepted += admitted
            row.rejected += count - admitted
        return admitted, rejected, hints

    def requeue_front(self, dests: np.ndarray, words: np.ndarray) -> None:
        """Put already-admitted words back at the head of their queues.

        *words* are ``(count, WORD_FIELDS)`` rows lifted off frames a
        plane will never deliver, *dests* their destinations, oldest
        frame first; they return to their own class's queue ahead of
        everything queued, in the same order, with their requeue count
        raised by one.  The words were admitted once and must not be
        re-rejected, so this may push a queue above capacity (new
        admissions still bounce until it drains) — and grows the rings
        when a queue outgrows them.
        """
        count = dests.shape[0]
        if not count:
            return
        classes = self._depth.shape[0]
        words = words.copy()
        words[:, REQUEUES] += 1
        cls = words[:, CLASS]
        keys = cls * self.n + dests
        per_queue = np.bincount(keys, minlength=classes * self.n)
        needed = int((self._depth.ravel() + per_queue).max())
        if needed > self._ring.shape[2]:
            self._grow(needed)
        size = self._ring.shape[2]
        per_queue = per_queue.reshape(classes, self.n)
        head = (self._head - per_queue) % size
        slots = (head[cls, dests] + _ranks(keys, per_queue.ravel())) % size
        self._ring[cls, dests, slots] = words
        self._head = head
        self._depth += per_queue
        self._queued += count
        self.requeued += count
        self.max_depth = max(
            self.max_depth, int(self.dest_depths()[dests].max())
        )
        if self._rows is not None:
            for row, requeued in zip(self._rows, per_queue.sum(axis=1).tolist()):
                row.requeued += requeued

    def _grow(self, size: int) -> None:
        """Re-lay every ring from slot 0 in a ring of at least *size*."""
        old = self._ring.shape[2]
        size = max(size, 2 * old)
        order = (self._head[..., None] + np.arange(old)) % old
        ring = np.empty(self._ring.shape[:2] + (size, WORD_FIELDS), np.int64)
        ring[:, :, :old] = np.take_along_axis(
            self._ring, order[..., None], axis=2
        )
        self._ring = ring
        self._head[:] = 0

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_frames(self, addresses: np.ndarray) -> np.ndarray:
        """Pop a window of frames; return their words on their lines.

        *addresses* is the ``(frames, n)`` line layout the scheduler
        built: row ``j`` carries, on some line, the head of every
        destination with more than ``j`` words queued — pairwise-
        distinct destinations, exactly the conflict-free partial traffic
        one frame can carry.  Returns ``(frames, n, WORD_FIELDS)`` rows
        in line order; lines of destinations that had no word for that
        frame (idle filler) hold stale rows the caller masks off.
        """
        frames = addresses.shape[0]
        size = self._ring.shape[2]
        if self._depth.shape[0] == 1:
            depth = self._depth[0]
            taken = np.minimum(depth, frames)
            slots = (self._head[0][addresses] + np.arange(frames)[:, None]) % size
            words = self._ring[0][addresses, slots]
            self._head[0] = (self._head[0] + taken) % size
            depth -= taken
            popped = int(taken.sum())
            if self._rows is not None:
                self._rows[0].served += popped
        else:
            picks, slots = self._pick_window(frames)
            picks = np.take_along_axis(picks, addresses, axis=1)
            slots = np.take_along_axis(slots, addresses, axis=1)
            words = self._ring[picks, addresses, slots]
            popped = int((picks >= 0).sum())
        self._queued -= popped
        return words

    def _pick_window(self, frames: int) -> Tuple[np.ndarray, np.ndarray]:
        """Tenant mode: the class and ring slot each destination serves
        in each of *frames* frames (``-1`` where it has no word).

        Per frame, for every destination at once: credit every
        backlogged class its weight, serve the largest credit, debit
        the winner by the total — unless the oldest head has waited
        ``starvation_cycles`` longer than the winner's, which is then
        served instead and counted as a rescue.  A lone backlogged class
        is served without touching credits, and a class's credit resets
        when its queue empties (an idle tenant banks nothing).
        """
        classes = self._depth.shape[0]
        lines = np.arange(self.n)
        grid = np.arange(classes)[:, None]
        weights = np.array(
            [[row.weight] for row in self._rows], dtype=np.int64
        )
        ring, head, depth, credit = (
            self._ring, self._head, self._depth, self._credit
        )
        size = ring.shape[2]
        picks = np.full((frames, self.n), -1, dtype=np.int64)
        slots = np.zeros((frames, self.n), dtype=np.int64)
        served = np.zeros(classes, dtype=np.int64)
        rescues = np.zeros(classes, dtype=np.int64)
        for frame in range(frames):
            backlogged = depth > 0
            contenders = backlogged.sum(axis=0)
            pick = np.argmax(backlogged, axis=0)
            contested = contenders > 1
            if contested.any():
                offered = np.where(backlogged & contested, weights, 0)
                credit += offered
                weighted = np.argmax(
                    np.where(backlogged, credit, _INT64_MIN), axis=0
                )
                ages = ring[grid, lines, head, ENQUEUED]
                oldest = np.argmin(
                    np.where(backlogged, ages, _INT64_MAX), axis=0
                )
                rescue = (
                    contested
                    & (oldest != weighted)
                    & (
                        ages[oldest, lines] + self.starvation_cycles
                        < ages[weighted, lines]
                    )
                )
                rescues += np.bincount(oldest[rescue], minlength=classes)
                pick = np.where(
                    contested, np.where(rescue, oldest, weighted), pick
                )
                credit[pick, lines] -= offered.sum(axis=0)
            live = lines[contenders > 0]
            pick = pick[live]
            picks[frame, live] = pick
            slots[frame, live] = head[pick, live]
            head[pick, live] = (head[pick, live] + 1) % size
            depth[pick, live] -= 1
            emptied = depth[pick, live] == 0
            credit[pick[emptied], live[emptied]] = 0
            served += np.bincount(pick, minlength=classes)
        for row, count, rescued in zip(
            self._rows, served.tolist(), rescues.tolist()
        ):
            row.served += count
            row.rescues += rescued
        return picks, slots

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self, destination: int) -> int:
        return int(self._depth[:, destination].sum())

    @property
    def total(self) -> int:
        return self._queued

    def depths(self) -> List[int]:
        return self.dest_depths().tolist()

    def drain_all(self) -> int:
        """Drop every queued word (gateway shutdown); return how many."""
        dropped = self._queued
        self._depth[:] = 0
        self._queued = 0
        return dropped

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Per-tenant fairness accounting, or ``None`` when tenants are off.

        ``served`` counts scheduler pops (words placed onto frames) and
        ``rescues`` counts starvation-override picks — a non-zero rescue
        count is the signal that one class was held off long enough for
        the age guard to intervene.
        """
        if self._rows is None:
            return None
        queued = self._depth.sum(axis=1).tolist()
        # Class order is registration order, in both the name map and
        # the row list.
        return {
            tenant: {
                "weight": row.weight,
                "queued": depth,
                "served": row.served,
                "starvation_rescues": row.rescues,
                "offered": row.offered,
                "accepted": row.accepted,
                "rejected": row.rejected,
                "requeued": row.requeued,
            }
            for tenant, row, depth in zip(self._class_of, self._rows, queued)
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

    def __repr__(self) -> str:
        return (
            f"VirtualOutputQueues(n={self.n}, capacity={self.capacity}, "
            f"queued={self.total})"
        )
