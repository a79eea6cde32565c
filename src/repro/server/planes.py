"""Fabric planes: the switching capacity behind the gateway.

A *plane* is one independent copy of the fabric plus the book-keeping
to track which frames are inside it.  One class per dataplane shape:

* :class:`PipelinedPlane` — a clocked pipelined fabric, one frame in
  per cycle and ``m`` in flight back-to-back: the reference
  :class:`~repro.core.pipeline.PipelinedBNBFabric`, every frame fully
  verified.  A misdelivery (physical fault on an unprotected plane)
  fails the plane, and its words requeue.
* :class:`BackendPlane` — a windowed batch plane: buffers frames and
  routes each window in one call on a
  :class:`~repro.backends.RoutingBackend` (the compiled BNB kernel or
  the multiway sorter; see ``docs/backends.md``), with
  total arithmetic verification.
* :class:`ResilientPlane` — a
  :class:`~repro.service.ResilientFabric` (object engine) or
  :class:`~repro.service.ResilientBNBFabric` (``bnb`` kernel) whose
  submit path already verifies, retries, BIST-diagnoses and fails over
  to a Benes spare, so a stuck switch degrades the plane instead of
  failing it.  One frame per step, so the resilient kinds trade peak
  throughput for fault tolerance — the kernel fabric narrows that
  trade substantially.

All expose the same interface the gateway's clock loop drives:
``ready`` / ``window`` / ``offer`` / ``step`` / ``kill`` / ``load``.
Frames travel as :class:`~repro.server.scheduler.ScheduledFrame`
windows of arrays: a backend plane takes up to its free ``window`` of
frames per offer, the clocked kinds one; a dead plane hands its words
back as one :class:`~repro.server.scheduler.Stranded` bundle.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..core.pipeline import PipelinedBNBFabric
from ..core.words import Word
from ..exceptions import FaultServiceError, MisdeliveryError
from ..service.fabric import ResilientFabric
from .scheduler import NOTHING_STRANDED, ScheduledFrame, Stranded

__all__ = [
    "BackendPlane",
    "CompletedFrame",
    "PipelinedPlane",
    "ResilientPlane",
]


@dataclasses.dataclass
class CompletedFrame:
    """A window of frames that left a plane with every real word on its
    addressed line.  The gateway resolves the window's words from
    ``frame.words`` in one pass; no plane materializes per-word
    objects for it."""

    frame: ScheduledFrame
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
        #: Windows inside the plane, keyed by their first frame's tag.
        self._in_flight: Dict[int, ScheduledFrame] = {}

    @property
    def in_flight(self) -> int:
        """Frames inside the plane."""
        return sum(len(frame) for frame in self._in_flight.values())

    @property
    def window(self) -> int:
        """Frames the plane takes in one offer: one per cycle."""
        return 1

    def kill(self, reason: str = "killed") -> Stranded:
        """Take the plane out of service; return its stranded words.

        Idempotent: a second kill returns nothing.  The caller (the
        gateway) requeues the words so in-flight traffic survives the
        plane's death.
        """
        if not self.healthy:
            return NOTHING_STRANDED
        self.healthy = False
        self.failure = reason
        stranded = Stranded.join(
            [frame.stranded() for frame in self._in_flight.values()]
        )
        self._in_flight.clear()
        return stranded

    def _delivered(self, frame: ScheduledFrame, mode: str) -> CompletedFrame:
        self.frames_delivered += len(frame)
        self.words_delivered += int(frame.active.sum())
        return CompletedFrame(frame=frame, plane_id=self.plane_id, mode=mode)

    def _verify(
        self, frame: ScheduledFrame, outputs: List[Optional[Word]]
    ) -> None:
        """Every real word must sit on its addressed line: the output a
        line addressed carries that line's word (payloads are line
        numbers)."""
        active = int(frame.active[0])
        for line, destination in enumerate(
            frame.addresses[0, :active].tolist()
        ):
            word = outputs[destination]
            if word is None or word.payload != line:
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {frame.tag}: found output {destination} "
                    f"carrying {word!r}, expected the word from line "
                    f"{line}",
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
    reference object model).  Every line of every delivered frame is
    verified.  A detected misdelivery — Theorem-2-impossible without a
    fault or an engine bug — fails the whole plane: the bad frame's
    words and everything else in flight requeue, and ``healthy`` drops
    so the gateway stops scheduling onto it.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        fabric: Optional[PipelinedBNBFabric] = None,
    ) -> None:
        super().__init__(plane_id)
        self.m = m
        self.fabric = (
            fabric
            if fabric is not None
            else PipelinedBNBFabric(m, retain_delivered=False)
        )
        self._delivered_now: List[Tuple[Any, List[Word]]] = []
        self.fabric.add_delivery_hook(
            lambda tag, outputs: self._delivered_now.append((tag, outputs))
        )

    @property
    def ready(self) -> bool:
        return self.healthy and self.fabric.can_accept

    @property
    def load(self) -> int:
        return self.in_flight + (0 if self.fabric.can_accept else 1)

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready or len(frame) != 1:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self.fabric.offer_words(frame.line_words(), tag=frame.tag)
        self._in_flight[frame.tag] = frame

    def step(self) -> Tuple[List[CompletedFrame], Stranded]:
        """One clock: returns (verified completions, words to requeue)."""
        if not self.healthy or (
            self.fabric.in_flight == 0 and self.fabric.can_accept
        ):
            return [], NOTHING_STRANDED
        self._delivered_now = []
        self.fabric.step()
        completed: List[CompletedFrame] = []
        for tag, outputs in self._delivered_now:
            frame = self._in_flight.pop(tag)
            try:
                self._verify(frame, outputs)
            except MisdeliveryError as error:
                return completed, Stranded.join(
                    [frame.stranded(), self.kill(reason=str(error))]
                )
            completed.append(self._delivered(frame, "clean"))
        return completed, NOTHING_STRANDED

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = "object"
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
    backend-agnostic and word-free: one masked ``take_along_axis``
    comparison checks that every real line's word reached the output
    it addressed, across the whole window — so a buggy (or merely
    disagreeing) backend kills the plane and requeues its words instead
    of misdelivering.
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
        self._pending_frames = 0

    @property
    def ready(self) -> bool:
        return self.healthy and self._pending_frames < self.batch_window

    @property
    def window(self) -> int:
        """Free frame slots left in the routing window."""
        return self.batch_window - self._pending_frames

    @property
    def load(self) -> int:
        return self.in_flight

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready or len(frame) > self.window:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._pending.append(frame)
        self._pending_frames += len(frame)
        self._in_flight[frame.tag] = frame

    def kill(self, reason: str = "killed") -> Stranded:
        stranded = super().kill(reason=reason)
        self._pending.clear()
        self._pending_frames = 0
        return stranded

    def step(self) -> Tuple[List[CompletedFrame], Stranded]:
        """Route every buffered frame through the backend in one call."""
        if not self.healthy or not self._pending:
            return [], NOTHING_STRANDED
        windows, self._pending = self._pending, []
        self._pending_frames = 0
        addresses = np.concatenate([frame.addresses for frame in windows])
        if addresses.shape[0] == 1:
            sources = self.backend.route_frame(addresses[0])[None, :]
        else:
            sources = self.backend.route_frame_batch(addresses)
        self.batches_routed += 1
        # sources[j, output] is the line whose word reached *output*, so
        # gathering at each line's address must give the line back.
        lines = np.arange(self.n)
        active = np.concatenate([frame.active for frame in windows])
        wrong = np.take_along_axis(sources, addresses, axis=1) != lines
        wrong &= lines < active[:, None]
        bad_rows = np.flatnonzero(wrong.any(axis=1))
        bad_row = int(bad_rows[0]) if bad_rows.size else addresses.shape[0]
        # Frames before the first misdelivered one complete; it and
        # every later frame requeue, oldest first.
        completed: List[CompletedFrame] = []
        offset = 0
        for frame in windows:
            self._in_flight.pop(frame.tag, None)
            local = bad_row - offset
            offset += len(frame)
            if local >= len(frame):
                completed.append(self._delivered(frame, "clean"))
                continue
            if local:
                completed.append(self._delivered(frame.rows(0, local), "clean"))
            bad = frame.addresses[local][wrong[bad_row]]
            error = MisdeliveryError(
                self.plane_id,
                f"frame {frame.tag + local}: backend {self.backend.name!r} "
                f"put the wrong source lines on outputs {bad.tolist()}",
            )
            return completed, Stranded.join(
                [frame.rows(local).stranded(), self.kill(reason=str(error))]
            )
        return completed, NOTHING_STRANDED

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
    Pass a :class:`~repro.service.ResilientBNBFabric` (the
    ``--engine bnb --resilient`` deployment) to run the same lifecycle
    on the compiled kernel.
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
        if not self.ready or len(frame) != 1:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._queued = frame
        self._in_flight[frame.tag] = frame

    def step(self) -> Tuple[List[CompletedFrame], Stranded]:
        if not self.healthy or self._queued is None:
            return [], NOTHING_STRANDED
        frame = self._queued
        self._queued = None
        try:
            result = self.fabric.submit_words(
                frame.line_words(), tag=frame.tag
            )
            self._verify(frame, result.outputs)
        except (FaultServiceError, MisdeliveryError) as error:
            self._in_flight.pop(frame.tag, None)
            return [], Stranded.join(
                [frame.stranded(), self.kill(reason=str(error))]
            )
        self._in_flight.pop(frame.tag, None)
        return [self._delivered(frame, result.mode)], NOTHING_STRANDED

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = self.fabric.engine
        info["service_state"] = self.fabric.state.value
        info["service_retries"] = self.fabric.counters.retries
        return info
