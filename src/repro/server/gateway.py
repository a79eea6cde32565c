"""The asyncio dataplane: concurrent clients -> VOQs -> frames -> planes.

:class:`AsyncGateway` owns the whole serving path.  Clients call
``await gateway.send(dest, payload)`` (or speak the JSON-lines TCP
protocol in :mod:`repro.server.protocol`, which lands here); admitted
words wait in the virtual output queues; a single clock task runs the
gateway *cycle*: coalesce frames, dispatch them to the least-loaded
ready plane, step every plane, resolve the futures of delivered words.

Because all fabric work is pure CPU and all shared state is touched
only between awaits, the gateway needs no locks — the event loop is the
serialization point.  Backpressure is the admission bound: a full VOQ
rejects with a retry-after hint rather than buffering without limit, so
overload costs clients latency, never the server memory.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..exceptions import (
    AdmissionRejectedError,
    GatewayClosedError,
    InputError,
    PlaneUnavailableError,
)
from ..backends import backend_names, compiled_backend, prewarm
from ..core.pipeline_fast import VectorPipelinedFabric
from ..service import ResilientVectorFabric
from .planes import (
    BackendPlane,
    CompletedFrame,
    PipelinedPlane,
    ResilientPlane,
)
from .scheduler import FrameScheduler
from .voq import (
    DEFAULT_TENANT,
    QueueEntry,
    VirtualOutputQueues,
    validate_tenants,
)

__all__ = ["AsyncGateway", "BatchResult", "GatewayConfig", "Receipt"]

#: Builds plane *i* for a gateway of address width *m*.
PlaneFactory = Callable[[int, int], Any]


@dataclasses.dataclass
class GatewayConfig:
    """Knobs for a gateway deployment."""

    m: int
    planes: int = 1
    queue_capacity: int = 32
    resilient: bool = False
    #: Dataplane engine for the planes: ``"object"`` clocks the
    #: reference ``PipelinedBNBFabric`` (every frame verified),
    #: ``"vector"`` the compiled-plan numpy ``VectorPipelinedFabric``
    #: (sampled verification), both as
    #: :class:`~repro.server.planes.PipelinedPlane`\ s.  Any backend
    #: name (``"bnb"`` or ``"msorter"``) serves
    #: :class:`~repro.server.planes.BackendPlane`\ s that route whole
    #: windows of frames per call on that backend — ``"bnb"`` is the
    #: engine behind ``send_batch`` throughput (see
    #: ``docs/backends.md``).  Orthogonal to ``resilient`` for the
    #: pipelined engines only: a resilient vector plane wraps a
    #: ``ResilientVectorFabric`` (masked fault kernels, pipelined BIST,
    #: compiled Benes failover), a resilient object plane a
    #: ``ResilientFabric``; backend engines have no resilient variant.
    engine: str = "object"
    #: Frames a backend plane buffers before one batched routing call.
    batch_window: int = 32
    #: Weighted QoS classes: ``{"gold": 8, "bronze": 1}`` splits every
    #: destination's VOQ into per-tenant FIFOs drained by deficit-
    #: weighted round-robin (see :mod:`repro.server.voq`), with
    #: per-tenant fairness accounting in ``stats()["tenants"]`` and the
    #: ``repro_tenant_*`` metrics.  ``None`` (the default) keeps the
    #: single-FIFO dataplane byte-identical to the untenanted code.
    tenants: Optional[Dict[str, int]] = None
    #: Starvation guard for tenant scheduling: a head word that has
    #: waited this many cycles longer than the weighted pick's head is
    #: served first regardless of weights.
    starvation_cycles: int = 1024
    #: Bound on latency samples kept for the percentile estimate.
    latency_window: int = 8192
    #: Stable identity this gateway reports in ``stats`` and as the
    #: ``node_id`` label on exported metrics, so cluster health polling
    #: can tell nodes apart.  ``None`` derives ``gw-<pid>``, unique per
    #: process — good enough for a one-node deployment, overridden with
    #: ``node-K`` names by the cluster supervisor.
    node_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"the gateway needs m >= 1, got {self.m}")
        if self.planes < 1:
            raise ValueError(f"need at least one plane, got {self.planes}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1, got {self.queue_capacity}"
            )
        builtin = ("object", "vector")
        if self.engine not in builtin and self.engine not in backend_names():
            raise ValueError(
                f"engine must be one of {builtin} or a registered "
                f"backend name {backend_names()}, got {self.engine!r}"
            )
        if self.engine not in ("object", "vector") and self.resilient:
            raise ValueError(
                f"the {self.engine!r} engine has no resilient variant; "
                f"use engine='vector' with resilient=True"
            )
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {self.batch_window}"
            )
        validate_tenants(self.tenants, self.starvation_cycles)

    @property
    def n(self) -> int:
        return 1 << self.m


@dataclasses.dataclass
class Receipt:
    """Proof of delivery handed back to the sender."""

    destination: int
    payload: Any
    plane_id: int
    frame_tag: int
    enqueued_cycle: int
    delivered_cycle: int
    mode: str
    requeues: int

    @property
    def latency_cycles(self) -> int:
        return self.delivered_cycle - self.enqueued_cycle


class BatchResult:
    """Outcome of one :meth:`AsyncGateway.send_batch`, array-shaped.

    One entry per submitted word, in submission order.  ``statuses[k]``
    is 1 for delivered, 0 for rejected; delivered words carry their
    plane / frame tag / latency in the matching arrays (−1 where
    rejected), rejected words their ``retry_after[k]`` backpressure
    hint (0 where delivered).  ``modes[k]`` indexes ``mode_table`` —
    the delivery-mode strings seen by this batch — so a million-word
    result stores a million int8s, not a million strings.  The arrays
    are preallocated at submission and filled in place as frames land,
    which is what keeps the per-word resolve cost to a few array
    stores instead of a ``Receipt`` object.
    """

    __slots__ = (
        "count",
        "statuses",
        "planes",
        "frames",
        "latencies",
        "retry_after",
        "modes",
        "mode_table",
    )

    def __init__(self, count: int) -> None:
        self.count = count
        self.statuses = np.zeros(count, dtype=np.int64)
        self.planes = np.full(count, -1, dtype=np.int64)
        self.frames = np.full(count, -1, dtype=np.int64)
        self.latencies = np.full(count, -1, dtype=np.int64)
        self.retry_after = np.zeros(count, dtype=np.int64)
        self.modes = np.full(count, -1, dtype=np.int64)
        self.mode_table: List[str] = []

    @property
    def delivered(self) -> int:
        return int(self.statuses.sum())

    @property
    def rejected(self) -> int:
        return self.count - self.delivered

    def mode_index(self, mode: str) -> int:
        try:
            return self.mode_table.index(mode)
        except ValueError:
            self.mode_table.append(mode)
            return len(self.mode_table) - 1

    def __repr__(self) -> str:
        return (
            f"BatchResult(count={self.count}, delivered={self.delivered}, "
            f"rejected={self.rejected})"
        )


class _BatchTracker:
    """Gateway-internal progress of one in-flight batch.

    ``open`` stays true while :meth:`AsyncGateway.send_batch` is still
    admitting (including its retry rounds), so a batch whose early
    words all land before the last words are admitted does not fire its
    future prematurely.
    """

    __slots__ = ("result", "future", "pending", "open")

    def __init__(self, result: BatchResult, future: "asyncio.Future") -> None:
        self.result = result
        self.future = future
        self.pending = 0
        self.open = True


class AsyncGateway:
    """Online serving of word-send requests over a pool of BNB planes."""

    def __init__(
        self,
        config: GatewayConfig,
        plane_factory: Optional[PlaneFactory] = None,
    ) -> None:
        self.config = config
        self.n = config.n
        self.voqs = VirtualOutputQueues(
            self.n,
            config.queue_capacity,
            tenants=config.tenants,
            starvation_cycles=config.starvation_cycles,
        )
        self.scheduler = FrameScheduler(self.n)
        #: Routing backend serving the planes, for stats and metrics:
        #: the pinned backend name for backend engines, the BNB engine
        #: the pipelined kinds wrap otherwise (``bnb-object`` names the
        #: object model the ``object`` engine clocks; it is not a backend).
        self.backend_name: str = {"object": "bnb-object", "vector": "bnb"}.get(
            config.engine, config.engine
        )
        if plane_factory is None:
            if config.resilient and config.engine == "vector":
                plane_factory = lambda i, m: ResilientPlane(
                    i, m, fabric=ResilientVectorFabric(m)
                )
            elif config.resilient:
                plane_factory = lambda i, m: ResilientPlane(i, m)
            elif config.engine == "vector":
                plane_factory = lambda i, m: PipelinedPlane(
                    i,
                    m,
                    fabric=VectorPipelinedFabric(m, retain_delivered=False),
                    verify_every=16,
                    spot_checks=2,
                )
            elif config.engine == "object":
                plane_factory = lambda i, m: PipelinedPlane(i, m)
            else:
                # Backend engines compile here, at construction, so no
                # served frame pays compile latency.
                engine = compiled_backend(self.backend_name, config.m)
                plane_factory = lambda i, m: BackendPlane(
                    i,
                    m,
                    backend=engine,
                    batch_window=config.batch_window,
                )
        self.planes = [
            plane_factory(i, config.m) for i in range(config.planes)
        ]
        # Pre-warm the compiled caches for whatever engine the planes
        # run, so the first frame after boot routes on hot tables.
        if not config.resilient and config.engine != "object":
            prewarm(config.m, [self.backend_name])
        self.node_id = config.node_id or f"gw-{os.getpid()}"
        self.cycle = 0
        self.delivered_words = 0
        self.delivered_frames = 0
        #: Optional telemetry sink (duck-typed; see
        #: :class:`repro.obs.instrument.GatewayInstrumentation`).  Every
        #: hook call is guarded by a ``None`` check so the uninstrumented
        #: dataplane pays one attribute test per event, nothing more.
        self.observer: Optional[Any] = None
        self._latencies: List[int] = []
        # Per-tenant delivery accounting, kept only in tenant mode so
        # the default _resolve loop pays a single None test per frame.
        self._tenant_latencies: Optional[Dict[str, List[int]]] = (
            {name: [] for name in config.tenants}
            if config.tenants is not None
            else None
        )
        self._tenant_delivered: Dict[str, int] = (
            {name: 0 for name in config.tenants}
            if config.tenants is not None
            else {}
        )
        self._mode_counts: Dict[str, int] = {}
        self._batch_trackers: Set[_BatchTracker] = set()
        self._accepting = False
        self._draining = False
        self._started_monotonic: Optional[float] = None
        self._clock_task: Optional[asyncio.Task] = None
        self._work = asyncio.Event()
        self._cycle_waiters: List[Any] = []  # (target_cycle, future) pairs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        if self._clock_task is not None:
            raise GatewayClosedError("gateway already started")
        self._accepting = True
        if self._started_monotonic is None:
            self._started_monotonic = time.monotonic()
        self._clock_task = asyncio.get_running_loop().create_task(
            self._run_clock()
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; optionally serve out the backlog first."""
        self._accepting = False
        if drain and self._clock_task is not None:
            while self.voqs.total or self._frames_in_flight():
                self._work.set()
                await asyncio.sleep(0)
                if not any(plane.healthy for plane in self.planes):
                    break
        task, self._clock_task = self._clock_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._fail_stranded(
            self.voqs.drain_all(),
            GatewayClosedError("shut down with words still queued"),
        )
        for target, future in self._cycle_waiters:
            if not future.done():
                future.set_result(self.cycle)
        self._cycle_waiters.clear()

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the first :meth:`start`; 0.0 before it."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> Dict[str, Any]:
        """Stop admitting new words; keep serving the backlog.

        The cluster tier's rolling-restart primitive (the ``drain``
        wire op): a draining gateway rejects every new ``send`` /
        ``send_batch`` word with an :class:`AdmissionRejectedError`
        carrying a retry-after hint, while queued words and in-flight
        frames complete normally — so an operator can wait for the
        backlog to reach zero and restart the node without a delivery
        gap.  Idempotent; :meth:`rejoin` reverses it.
        """
        self._draining = True
        return {
            "queued": self.voqs.total,
            "in_flight": self._frames_in_flight(),
        }

    def rejoin(self) -> None:
        """Resume admission after a :meth:`drain` (idempotent)."""
        self._draining = False
        self._work.set()

    def _drain_hint_cycles(self) -> int:
        """Retry-after for words bounced by a drain: the backlog the
        node must serve out before it can plausibly rejoin."""
        return max(1, self.voqs.total + self._frames_in_flight())

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def send(
        self,
        destination: int,
        payload: Any = None,
        tenant: Optional[str] = None,
    ) -> Receipt:
        """Admit one word and await its delivery receipt.

        *tenant* names the word's QoS class when the gateway was
        configured with :attr:`GatewayConfig.tenants`; unnamed words
        ride the ``"default"`` class and the field is inert (stored,
        never consulted) on an untenanted gateway.

        Raises :class:`AdmissionRejectedError` (with a retry-after hint
        in cycles) under backpressure, :class:`InputError` for a bad
        destination, :class:`GatewayClosedError` when not serving.
        """
        if not self._accepting:
            raise GatewayClosedError()
        if not 0 <= destination < self.n:
            raise InputError(
                f"destination {destination} out of range for N={self.n}"
            )
        if self._draining:
            hint = self._drain_hint_cycles()
            raise AdmissionRejectedError(
                destination, self.voqs.depth(destination), hint
            )
        if not any(plane.healthy for plane in self.planes):
            raise PlaneUnavailableError(len(self.planes))
        entry = QueueEntry(
            destination=destination,
            payload=payload,
            enqueued_cycle=self.cycle,
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant if tenant is not None else DEFAULT_TENANT,
        )
        try:
            self.voqs.admit(entry)  # raises AdmissionRejectedError when full
        except AdmissionRejectedError as error:
            if self.observer is not None:
                self.observer.on_reject(entry, error)
            raise
        self._work.set()
        return await entry.future

    async def send_with_retry(
        self,
        destination: int,
        payload: Any = None,
        attempts: int = 16,
        tenant: Optional[str] = None,
    ) -> Receipt:
        """Like :meth:`send`, but honour backpressure by waiting it out.

        Each rejection waits the advertised ``retry_after_cycles`` (at
        least one) before retrying; after *attempts* rejections the last
        :class:`AdmissionRejectedError` propagates.
        """
        for attempt in range(attempts):
            try:
                return await self.send(destination, payload, tenant)
            except AdmissionRejectedError as error:
                if attempt == attempts - 1:
                    raise
                await self.wait_cycles(max(1, error.retry_after_cycles))
        raise AssertionError("unreachable")  # pragma: no cover

    async def send_batch(
        self,
        destinations: Any,
        payloads: Optional[Sequence[Any]] = None,
        retry_attempts: int = 0,
        tenant: Optional[str] = None,
    ) -> BatchResult:
        """Admit a whole batch of words and await every delivery.

        The per-request counterpart of the fabric's frame-axis
        batching: one call admits ``len(destinations)`` words (an int64
        array or any sequence of ints), the clock coalesces and routes
        them across however many frames they need, and one
        :class:`BatchResult` comes back with per-word status arrays —
        no per-word futures, no per-word Receipt objects.

        Admission is per word and non-raising: words that hit a full
        VOQ are marked rejected in the result (with their
        ``retry_after`` hint) instead of failing the batch.  With
        ``retry_attempts > 0`` the gateway itself waits out the
        advertised backpressure and re-offers the rejected remainder up
        to that many more times before reporting them rejected.

        Raises :class:`InputError` for any out-of-range destination
        (the batch shape is the caller's bug, not backpressure),
        :class:`GatewayClosedError` / :class:`PlaneUnavailableError`
        exactly like :meth:`send`.
        """
        if not self._accepting:
            raise GatewayClosedError()
        dests = np.ascontiguousarray(destinations, dtype=np.int64)
        if dests.ndim != 1:
            raise InputError(
                f"destinations must be one-dimensional, got shape "
                f"{dests.shape}"
            )
        if retry_attempts < 0:
            raise InputError(
                f"retry_attempts must be >= 0, got {retry_attempts}"
            )
        count = int(dests.shape[0])
        result = BatchResult(count)
        if count == 0:
            return result
        bad = (dests < 0) | (dests >= self.n)
        if bad.any():
            raise InputError(
                f"destinations {dests[bad][:8].tolist()} out of range "
                f"for N={self.n}"
            )
        if not any(plane.healthy for plane in self.planes):
            raise PlaneUnavailableError(len(self.planes))
        if payloads is not None and len(payloads) != count:
            raise InputError(
                f"got {len(payloads)} payloads for {count} destinations"
            )
        if self._draining:
            # A draining gateway bounces the whole batch with hints but
            # still returns a well-formed result: statuses stay 0.
            result.retry_after[:] = self._drain_hint_cycles()
            return result
        tracker = _BatchTracker(
            result, asyncio.get_running_loop().create_future()
        )
        self._batch_trackers.add(tracker)
        dest_list = dests.tolist()  # one C pass beats a per-word int() each
        payload_list = None if payloads is None else list(payloads)
        tenant_name = tenant if tenant is not None else DEFAULT_TENANT
        try:
            rejected = self._admit_batch_round(
                tracker, dest_list, payload_list, range(count), tenant_name
            )
            for _attempt in range(retry_attempts):
                if not rejected:
                    break
                wait = max(
                    1, int(result.retry_after[rejected].max(initial=0))
                )
                await self.wait_cycles(wait)
                if not self._accepting:
                    break
                if self._draining:
                    # A drain that started mid-retry bounces the
                    # remainder: admitting more would extend the very
                    # backlog the drain is waiting out.
                    result.retry_after[rejected] = self._drain_hint_cycles()
                    break
                # Clear the stale hints before re-offering: the VOQ
                # accept path never writes zeros (see admit_batch), so
                # a word accepted on retry keeps hint 0 from here.
                result.retry_after[rejected] = 0
                rejected = self._admit_batch_round(
                    tracker, dest_list, payload_list, rejected, tenant_name
                )
            tracker.open = False
            if tracker.pending == 0 and not tracker.future.done():
                tracker.future.set_result(result)
            self._work.set()
            return await tracker.future
        finally:
            self._batch_trackers.discard(tracker)

    def _admit_batch_round(
        self,
        tracker: _BatchTracker,
        dests: List[int],
        payloads: Optional[Sequence[Any]],
        indices: Any,
        tenant: str = DEFAULT_TENANT,
    ) -> List[int]:
        """Offer the words at *indices* to the VOQs; return the rejects.

        Synchronous on purpose: no await happens between the first and
        last admission of a round, so deliveries cannot interleave with
        the bookkeeping.
        """
        result = tracker.result
        admitted, rejected = self.voqs.admit_batch(
            dests,
            payloads,
            self.cycle,
            tracker,
            result.retry_after,
            indices,
            tenant,
        )
        tracker.pending += admitted
        if rejected and self.observer is not None:
            retry_after = result.retry_after
            for index in rejected:
                destination = dests[index]
                hint = int(retry_after[index])
                self.observer.on_reject(
                    QueueEntry(
                        destination,
                        None if payloads is None else payloads[index],
                        self.cycle,
                        None,
                        0,
                        tracker,
                        index,
                        tenant,
                    ),
                    AdmissionRejectedError(destination, hint, hint),
                )
        self._work.set()
        return rejected

    async def wait_cycles(self, cycles: int) -> int:
        """Await *cycles* gateway cycles; returns the cycle reached.

        The clock keeps ticking while waiters exist, so this never
        deadlocks even when the queues are empty.
        """
        future = asyncio.get_running_loop().create_future()
        self._cycle_waiters.append((self.cycle + max(1, cycles), future))
        self._work.set()
        return await future

    def kill_plane(self, plane_id: int, reason: str = "operator kill") -> int:
        """Fail one plane; its in-flight words requeue.  Returns how many."""
        plane = self.planes[plane_id]
        was_healthy = plane.healthy
        stranded = plane.kill(reason=reason)
        self.voqs.requeue_front(stranded)
        if self.observer is not None:
            if stranded:
                self.observer.on_requeue(plane, stranded)
            if was_healthy:
                self.observer.on_plane_killed(plane)
        self._work.set()
        return len(stranded)

    def inject_fault(
        self, plane_id: int, coordinate: Any, value: int
    ) -> Dict[str, Any]:
        """Inject a stuck-control fault into one plane's live fabric.

        The operator-facing fault drill (the ``inject`` protocol op):
        *coordinate* is a 5-sequence ``(main_stage, nested,
        nested_stage, box, switch)``.  Only planes whose fabric exposes
        ``inject_stuck_control`` — the resilient kinds — can take one;
        anything else raises :class:`InputError` rather than silently
        ignoring the drill.
        """
        from ..faults.injector import SwitchCoordinate

        if not 0 <= plane_id < len(self.planes):
            raise InputError(
                f"plane {plane_id} out of range "
                f"({len(self.planes)} plane(s))"
            )
        plane = self.planes[plane_id]
        fabric = getattr(plane, "fabric", None)
        inject = getattr(fabric, "inject_stuck_control", None)
        if inject is None:
            raise InputError(
                f"plane {plane_id} ({type(plane).__name__}) cannot take "
                f"fault injection; serve with --resilient"
            )
        inject(SwitchCoordinate(*(int(axis) for axis in coordinate)), value)
        self._work.set()
        return plane.describe()

    def _fail_stranded(self, entries: List[QueueEntry], failure: Exception) -> None:
        """Fail every stranded waiter: per-word futures and whole batches.

        A batch tracker fails as a unit — one exception wakes its
        ``send_batch`` — because its preallocated result is meaningless
        once any of its words can no longer be delivered.
        """
        for entry in entries:
            if entry.future is not None and not entry.future.done():
                entry.future.set_exception(failure)
        for tracker in list(self._batch_trackers):
            if not tracker.future.done():
                tracker.future.set_exception(failure)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------
    def _frames_in_flight(self) -> int:
        return sum(
            plane.load for plane in self.planes if plane.healthy
        )

    def _has_work(self) -> bool:
        return bool(
            self.voqs.total or self._frames_in_flight() or self._cycle_waiters
        )

    async def _run_clock(self) -> None:
        try:
            while True:
                if not self._has_work():
                    self._work.clear()
                    await self._work.wait()
                    continue
                self.tick()
                # Yield so client coroutines run between cycles.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — clock must not die silently
            # A clock crash would strand every awaiting client; fail them
            # loudly instead and refuse further traffic.
            self._accepting = False
            failure = GatewayClosedError(f"clock task crashed: {error!r}")
            stranded = self.voqs.drain_all()
            for plane in self.planes:
                stranded.extend(plane.kill(reason="clock crash"))
            self._fail_stranded(stranded, failure)
            for _target, future in self._cycle_waiters:
                if not future.done():
                    future.set_exception(failure)
            self._cycle_waiters.clear()
            raise

    def tick(self) -> None:
        """One synchronous gateway cycle (the benchmark harness calls it
        directly; the clock task calls it between awaits)."""
        self.cycle += 1
        healthy = [plane for plane in self.planes if plane.healthy]
        # Dispatch: least-loaded ready planes first, while backlog remains.
        ready = sorted(
            (plane for plane in healthy if plane.ready),
            key=lambda plane: plane.load,
        )
        for plane in ready:
            if not self.voqs.total:
                break
            # A plane that stays ready after a frame (the batch engine
            # buffering toward its window) keeps taking frames, so one
            # tick can hand it a whole batch.
            while plane.ready and self.voqs.total:
                frame = self.scheduler.next_frame(self.voqs, self.cycle)
                if frame is None:
                    break
                plane.offer(frame)
                if self.observer is not None:
                    self.observer.on_dispatch(frame, plane, self.cycle)
        # Clock every healthy plane; collect deliveries and casualties.
        for plane in healthy:
            completed, requeue = plane.step()
            for completion in completed:
                self._resolve(completion)
            if requeue:
                self.voqs.requeue_front(requeue)
                if self.observer is not None:
                    self.observer.on_requeue(plane, requeue)
            # A plane that was healthy entering the tick and is not now
            # was killed by its own step(); report it exactly once.
            if not plane.healthy and self.observer is not None:
                self.observer.on_plane_killed(plane)
        # Release cycle waiters that reached their target.
        if self._cycle_waiters:
            still_waiting = []
            for target, future in self._cycle_waiters:
                if self.cycle >= target:
                    if not future.done():
                        future.set_result(self.cycle)
                else:
                    still_waiting.append((target, future))
            self._cycle_waiters = still_waiting

    def _resolve(self, completion: CompletedFrame) -> None:
        frame = completion.frame
        self.delivered_frames += 1
        self._mode_counts[completion.mode] = (
            self._mode_counts.get(completion.mode, 0) + 1
        )
        worst_latency = 0
        plane_id = completion.plane_id
        mode = completion.mode
        cycle = self.cycle
        tag = frame.tag
        entries = frame.entries
        self.delivered_words += len(entries)
        latency_samples = self._latencies
        tenant_samples = self._tenant_latencies
        tenant_delivered = self._tenant_delivered
        # Batch words resolve per *frame*, not per word: indices and
        # latencies group by tracker, then land in the preallocated
        # result arrays as a handful of fancy-indexed stores.
        groups: Dict[Any, Any] = {}
        for destination, entry in entries.items():
            latency = cycle - entry.enqueued_cycle
            if latency > worst_latency:
                worst_latency = latency
            latency_samples.append(latency)
            if tenant_samples is not None:
                tenant = entry.tenant
                samples = tenant_samples.get(tenant)
                if samples is None:
                    samples = tenant_samples[tenant] = []
                    tenant_delivered[tenant] = 0
                samples.append(latency)
                tenant_delivered[tenant] += 1
            tracker = entry.batch
            if tracker is not None:
                group = groups.get(tracker)
                if group is None:
                    groups[tracker] = group = ([], [])
                group[0].append(entry.batch_index)
                group[1].append(latency)
            elif entry.future is not None and not entry.future.done():
                entry.future.set_result(
                    Receipt(
                        destination=destination,
                        payload=entry.payload,
                        plane_id=plane_id,
                        frame_tag=tag,
                        enqueued_cycle=entry.enqueued_cycle,
                        delivered_cycle=cycle,
                        mode=mode,
                        requeues=entry.requeues,
                    )
                )
        for tracker, (indices, latencies) in groups.items():
            result = tracker.result
            result.statuses[indices] = 1
            result.planes[indices] = plane_id
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
        if self.observer is not None:
            self.observer.on_frame_delivered(completion, self.cycle, worst_latency)
        window = self.config.latency_window
        if len(self._latencies) > 2 * window:
            del self._latencies[:-window]
        if tenant_samples is not None:
            for samples in tenant_samples.values():
                if len(samples) > 2 * window:
                    del samples[:-window]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @staticmethod
    def _percentile(samples: List[int], q: float) -> Optional[int]:
        if not samples:
            return None
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Fairness + latency accounting per QoS class, or ``None``
        when the gateway runs untenanted.

        Merges the VOQ's admission/service counters with the gateway's
        delivery counts and per-class latency percentiles — the payload
        behind ``stats()["tenants"]`` and the ``repro_tenant_*``
        metrics.
        """
        rows = self.voqs.tenant_snapshot()
        if rows is None:
            return None
        for tenant, row in rows.items():
            samples = (
                self._tenant_latencies.get(tenant, [])
                if self._tenant_latencies is not None
                else []
            )
            row["delivered"] = self._tenant_delivered.get(tenant, 0)
            row["latency_cycles"] = {
                "samples": len(samples),
                "p50": self._percentile(samples, 0.50),
                "p99": self._percentile(samples, 0.99),
                "max": max(samples) if samples else None,
            }
        return rows

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of every component's counters."""
        latencies = self._latencies
        return {
            "cycle": self.cycle,
            "n": self.n,
            "node_id": self.node_id,
            "engine": self.config.engine,
            "backend": self.backend_name,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "accepting": self._accepting,
            "draining": self._draining,
            "delivered_words": self.delivered_words,
            "delivered_frames": self.delivered_frames,
            "delivery_modes": dict(self._mode_counts),
            "queues": self.voqs.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "tenants": self.tenant_snapshot(),
            "latency_cycles": {
                "samples": len(latencies),
                "p50": self._percentile(latencies, 0.50),
                "p99": self._percentile(latencies, 0.99),
                "max": max(latencies) if latencies else None,
            },
            "planes": [plane.describe() for plane in self.planes],
        }
