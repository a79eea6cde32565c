"""Fabric planes: the switching capacity behind the gateway.

A *plane* is one independent copy of the fabric plus the book-keeping
to track which frames are inside it.  One class per dataplane shape:

* :class:`PipelinedPlane` — a clocked pipelined fabric, one frame in
  per cycle and ``m`` in flight back-to-back: the reference
  :class:`~repro.core.pipeline.PipelinedBNBFabric` (every frame fully
  verified) or the compiled
  :class:`~repro.core.pipeline_fast.VectorPipelinedFabric` (sampled
  verification, so checking cannot erase the engine's speed).  A
  misdelivery (physical fault on an unprotected plane) fails the plane,
  and its words requeue.
* :class:`BackendPlane` — a windowed batch plane: buffers frames and
  routes each window in one call on a
  :class:`~repro.backends.RoutingBackend` (the compiled BNB kernel or
  the multiway sorter; see ``docs/backends.md``), with
  total arithmetic verification.
* :class:`ResilientPlane` — a
  :class:`~repro.service.ResilientFabric` (object engine) or
  :class:`~repro.service.ResilientVectorFabric` (vector engine) whose
  submit path already verifies, retries, BIST-diagnoses and fails over
  to a Benes spare, so a stuck switch degrades the plane instead of
  failing it.  One frame per step (the resilient submit drains its
  pipeline), so the resilient kinds trade peak throughput for fault
  tolerance — the vector fabric narrows that trade substantially.

All expose the same interface the gateway's clock loop drives:
``ready`` / ``offer`` / ``step`` / ``kill`` / ``load``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..core.pipeline import PipelinedBNBFabric
from ..core.pipeline_fast import VectorPipelinedFabric
from ..core.words import Word
from ..exceptions import FaultServiceError, MisdeliveryError
from ..service.fabric import ResilientFabric
from .scheduler import ScheduledFrame
from .voq import QueueEntry

__all__ = [
    "BackendPlane",
    "CompletedFrame",
    "PipelinedPlane",
    "ResilientPlane",
]


@dataclasses.dataclass
class CompletedFrame:
    """A frame that left a plane with every word on its addressed line.

    ``outputs`` is the per-line Word list for the pipelined and
    resilient planes; :class:`BackendPlane` verifies arithmetically on
    source-index arrays and leaves it ``None`` — nothing downstream of
    a plane reads ``outputs`` (the gateway resolves receipts from
    ``frame.entries``), so batch completions never materialize
    per-word objects.
    """

    frame: ScheduledFrame
    outputs: Optional[List[Optional[Word]]]
    plane_id: int
    mode: str  # "clean" | "degraded" | "failover"


class _PlaneBase:
    """Shared identity, health and accounting for every plane kind."""

    def __init__(self, plane_id: int) -> None:
        self.plane_id = plane_id
        self.healthy = True
        self.frames_delivered = 0
        self.words_delivered = 0
        self.failure: Optional[str] = None
        self._in_flight: Dict[int, ScheduledFrame] = {}

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def kill(self, reason: str = "killed") -> List[QueueEntry]:
        """Take the plane out of service; return stranded queue entries.

        Idempotent: a second kill returns nothing.  The caller (the
        gateway) requeues the entries so in-flight words survive the
        plane's death.
        """
        if not self.healthy:
            return []
        self.healthy = False
        self.failure = reason
        stranded = [
            entry
            for frame in self._in_flight.values()
            for entry in frame.entries.values()
        ]
        self._in_flight.clear()
        return stranded

    def _verify(
        self, frame: ScheduledFrame, outputs: List[Optional[Word]]
    ) -> None:
        """Every entry's word must sit on its addressed line, payload intact."""
        for destination, entry in frame.entries.items():
            word = outputs[destination]
            if word is None or word.payload is not entry:
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {frame.tag}: output {destination} carries "
                    f"{word!r}, expected the word for {entry.destination}",
                )

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.plane_id,
            "kind": type(self).__name__,
            "healthy": self.healthy,
            "failure": self.failure,
            "in_flight": self.in_flight,
            "frames_delivered": self.frames_delivered,
            "words_delivered": self.words_delivered,
        }


class PipelinedPlane(_PlaneBase):
    """A clocked BNB plane: one frame enters per cycle, ``m`` in flight.

    *fabric* is a :class:`~repro.core.pipeline.PipelinedBNBFabric` (the
    reference object model, the default) or a
    :class:`~repro.core.pipeline_fast.VectorPipelinedFabric` (compiled
    numpy, same interface).  Verifying every line of every frame would
    put a per-word Python loop back on the vector engine's hot path, so
    verification is a policy: every ``verify_every``-th delivered frame
    is fully checked, the others get ``spot_checks`` rotating
    per-destination probes.  The defaults (1, 0) check every frame in
    full; the gateway's ``engine="vector"`` samples with (16, 2).  A
    detected misdelivery — Theorem-2-impossible without a fault or an
    engine bug — fails the whole plane: the bad frame's words and
    everything else in flight requeue, and ``healthy`` drops so the
    gateway stops scheduling onto it.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        fabric: "PipelinedBNBFabric | VectorPipelinedFabric | None" = None,
        verify_every: int = 1,
        spot_checks: int = 0,
    ) -> None:
        super().__init__(plane_id)
        if verify_every < 1:
            raise ValueError(
                f"verify_every must be >= 1, got {verify_every}"
            )
        if spot_checks < 0:
            raise ValueError(
                f"spot_checks must be >= 0, got {spot_checks}"
            )
        self.m = m
        self.verify_every = verify_every
        self.spot_checks = spot_checks
        self.full_verifies = 0
        self.spot_verifies = 0
        self.fabric = (
            fabric
            if fabric is not None
            else PipelinedBNBFabric(m, retain_delivered=False)
        )
        self._delivered_now: List[Tuple[Any, List[Word]]] = []
        self.fabric.add_delivery_hook(
            lambda tag, outputs: self._delivered_now.append((tag, outputs))
        )
        self._verified_counter = 0
        self._spot_cursor = 0

    @property
    def ready(self) -> bool:
        return self.healthy and self.fabric.can_accept

    @property
    def load(self) -> int:
        return self.in_flight + (0 if self.fabric.can_accept else 1)

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self.fabric.offer_words(frame.words, tag=frame.tag)
        self._in_flight[frame.tag] = frame

    def _verify_sampled(
        self, frame: ScheduledFrame, outputs: List[Optional[Word]]
    ) -> None:
        """Full verify every k-th frame, rotating spot checks otherwise."""
        index = self._verified_counter
        self._verified_counter += 1
        if index % self.verify_every == 0:
            self.full_verifies += 1
            self._verify(frame, outputs)
            return
        if not self.spot_checks or not frame.entries:
            return
        self.spot_verifies += 1
        destinations = sorted(frame.entries)
        for probe in range(min(self.spot_checks, len(destinations))):
            destination = destinations[
                (self._spot_cursor + probe) % len(destinations)
            ]
            entry = frame.entries[destination]
            word = outputs[destination]
            if word is None or word.payload is not entry:
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {frame.tag}: spot check found output "
                    f"{destination} carrying {word!r}, expected the word "
                    f"for {entry.destination}",
                )
        self._spot_cursor = (self._spot_cursor + self.spot_checks) % max(
            len(destinations), 1
        )

    def step(self) -> Tuple[List[CompletedFrame], List[QueueEntry]]:
        """One clock: returns (verified completions, entries to requeue)."""
        if not self.healthy or (
            self.fabric.in_flight == 0 and self.fabric.can_accept
        ):
            return [], []
        self._delivered_now = []
        self.fabric.step()
        completed: List[CompletedFrame] = []
        for tag, outputs in self._delivered_now:
            frame = self._in_flight.pop(tag)
            try:
                self._verify_sampled(frame, outputs)
            except MisdeliveryError as error:
                requeue = list(frame.entries.values())
                requeue.extend(self.kill(reason=str(error)))
                return completed, requeue
            self.frames_delivered += 1
            self.words_delivered += frame.active
            completed.append(
                CompletedFrame(
                    frame=frame,
                    outputs=outputs,
                    plane_id=self.plane_id,
                    mode="clean",
                )
            )
        return completed, []

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = (
            "vector"
            if isinstance(self.fabric, VectorPipelinedFabric)
            else "object"
        )
        info["verify_every"] = self.verify_every
        info["full_verifies"] = self.full_verifies
        info["spot_verifies"] = self.spot_verifies
        return info


class BackendPlane(_PlaneBase):
    """A frame-axis batch plane routing through a compiled backend.

    Buffers up to ``batch_window`` frames and routes them all in one
    ``route_frame_batch`` call (a lone frame takes ``route_frame``) of
    the :class:`~repro.backends.RoutingBackend` the gateway pinned by
    name (``engine="bnb"``, ``"msorter"``, ...): every stage becomes a
    single numpy gather over a ``(batch, n)`` matrix, so the
    interpreter cost of a stage is paid once per *window* instead of
    once per frame.  This is the dataplane behind ``send_batch``
    throughput (see ``docs/backends.md``).  Verification is total,
    backend-agnostic and word-free: the routed ``sources`` row of a
    frame must put every genuine destination's word on its addressed
    line, one vectorized comparison against ``real_dests``/
    ``real_lines`` — so a buggy (or merely disagreeing) backend kills
    the plane and requeues its words instead of misdelivering.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        backend: "RoutingBackend | str" = "bnb",
        batch_window: int = 32,
    ) -> None:
        super().__init__(plane_id)
        if batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        self.m = m
        self.n = 1 << m
        # Accept a name (compiled through the shared per-process cache)
        # or an already-compiled engine (the gateway passes one so every
        # plane shares it).
        self.backend = (
            compiled_backend(backend, m)
            if isinstance(backend, str)
            else backend
        )
        self.batch_window = batch_window
        self.batches_routed = 0
        self._pending: List[ScheduledFrame] = []

    @property
    def ready(self) -> bool:
        return self.healthy and len(self._pending) < self.batch_window

    @property
    def load(self) -> int:
        return self.in_flight

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._pending.append(frame)
        self._in_flight[frame.tag] = frame

    def kill(self, reason: str = "killed") -> List[QueueEntry]:
        stranded = super().kill(reason=reason)
        self._pending.clear()
        return stranded

    def step(self) -> Tuple[List[CompletedFrame], List[QueueEntry]]:
        """Route every buffered frame through the backend in one call."""
        if not self.healthy or not self._pending:
            return [], []
        frames, self._pending = self._pending, []
        if len(frames) == 1:
            sources = self.backend.route_frame(frames[0].address_array)[
                None, :
            ]
        else:
            sources = self.backend.route_frame_batch(
                np.stack([frame.address_array for frame in frames])
            )
        self.batches_routed += 1
        completed: List[CompletedFrame] = []
        for row, frame in zip(sources, frames):
            self._in_flight.pop(frame.tag, None)
            dests = frame.real_dests
            if dests.size and not np.array_equal(
                row[dests], frame.real_lines
            ):
                bad = dests[row[dests] != frame.real_lines]
                requeue = list(frame.entries.values())
                requeue.extend(
                    self.kill(
                        reason=str(
                            MisdeliveryError(
                                self.plane_id,
                                f"frame {frame.tag}: backend "
                                f"{self.backend.name!r} put the wrong "
                                f"source lines on outputs {bad.tolist()}",
                            )
                        )
                    )
                )
                return completed, requeue
            self.frames_delivered += 1
            self.words_delivered += frame.active
            completed.append(
                CompletedFrame(
                    frame=frame,
                    outputs=None,
                    plane_id=self.plane_id,
                    mode="clean",
                )
            )
        return completed, []

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = "backend"
        info["backend"] = self.backend.name
        info["batch_window"] = self.batch_window
        info["batches_routed"] = self.batches_routed
        return info


class ResilientPlane(_PlaneBase):
    """A :class:`ResilientFabric`-protected plane: self-healing.

    ``step`` runs the full verified submit for one queued frame, so a
    frame occupies the plane for several internal fabric cycles; the
    gateway sees at most one completion per step.  Faults degrade the
    plane (retries, Benes failover) rather than killing it; only an
    exhausted fault service (:class:`FaultServiceError`) fails it.
    Pass a :class:`~repro.service.ResilientVectorFabric` (the
    ``--engine vector --resilient`` deployment) to run the same
    lifecycle on the compiled engine.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        fabric: Optional[ResilientFabric] = None,
    ) -> None:
        super().__init__(plane_id)
        self.m = m
        self.fabric = fabric if fabric is not None else ResilientFabric(m)
        self._queued: Optional[ScheduledFrame] = None

    @property
    def ready(self) -> bool:
        return self.healthy and self._queued is None

    @property
    def load(self) -> int:
        return self.in_flight + (0 if self._queued is None else 1)

    @property
    def degraded(self) -> bool:
        return self.fabric.registry.is_quarantined

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._queued = frame
        self._in_flight[frame.tag] = frame

    def step(self) -> Tuple[List[CompletedFrame], List[QueueEntry]]:
        if not self.healthy or self._queued is None:
            return [], []
        frame = self._queued
        self._queued = None
        try:
            result = self.fabric.submit_words(frame.words, tag=frame.tag)
            self._verify(frame, result.outputs)
        except (FaultServiceError, MisdeliveryError) as error:
            requeue = list(frame.entries.values())
            self._in_flight.pop(frame.tag, None)
            requeue.extend(self.kill(reason=str(error)))
            return [], requeue
        self._in_flight.pop(frame.tag, None)
        self.frames_delivered += 1
        self.words_delivered += frame.active
        return (
            [
                CompletedFrame(
                    frame=frame,
                    outputs=result.outputs,
                    plane_id=self.plane_id,
                    mode=result.mode,
                )
            ],
            [],
        )

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = (
            "vector"
            if isinstance(self.fabric.pipeline, VectorPipelinedFabric)
            else "object"
        )
        info["service_state"] = self.fabric.state.value
        info["service_retries"] = self.fabric.counters.retries
        return info
