"""Fault registry: health states, structured events and counters.

The registry is the service's book-keeping half.  It owns the fabric's
health state machine

    ``healthy -> suspect -> confirmed -> quarantined``

(suspect can also fall back to healthy when a BIST pass finds nothing),
an append-only log of structured :class:`FaultEvent` records, and the
running :class:`ServiceCounters`.  Listeners subscribe callable hooks
in the style of :mod:`repro.sim.monitors` — each emitted event is
pushed to every listener, and :class:`HealthMonitor` is the bundled
probe-like consumer that keeps a per-kind history.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import FaultServiceError

__all__ = [
    "HealthState",
    "FaultEvent",
    "ServiceCounters",
    "FaultRegistry",
    "HealthMonitor",
]


class HealthState(enum.Enum):
    """Lifecycle of the primary plane's health assessment."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    CONFIRMED = "confirmed"
    QUARANTINED = "quarantined"


#: Legal state transitions; anything else is a service bug.
_TRANSITIONS = {
    (HealthState.HEALTHY, HealthState.SUSPECT),
    (HealthState.SUSPECT, HealthState.HEALTHY),
    (HealthState.SUSPECT, HealthState.CONFIRMED),
    (HealthState.CONFIRMED, HealthState.QUARANTINED),
}


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One structured entry in the service's fault log.

    ``kind`` is one of: ``detection``, ``retry``, ``bist``,
    ``localization``, ``cleared``, ``confirmation``, ``quarantine``,
    ``failover``, ``failover-plan`` (a kernel fabric compiled its spare
    routing plan), ``injection`` (an operator injected a fault into the
    live primary), ``delivery``.  ``data`` carries kind-specific fields
    (syndrome sizes, candidate counts, backoff cycles, ...).
    """

    sequence: int
    kind: str
    batch: Any
    detail: str
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.sequence:03d}] {self.kind:<12} {self.detail}"


@dataclasses.dataclass
class ServiceCounters:
    """Running totals across the service's lifetime."""

    batches: int = 0
    batches_clean: int = 0
    batches_degraded: int = 0
    batches_failover: int = 0
    detections: int = 0
    retries: int = 0
    backoff_cycles: int = 0
    bist_runs: int = 0
    localizations: int = 0
    failovers: int = 0
    words_clean: int = 0
    words_degraded: int = 0
    words_failover: int = 0

    @property
    def words_delivered(self) -> int:
        return self.words_clean + self.words_degraded + self.words_failover

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class FaultRegistry:
    """Health state machine + event log + listener fan-out."""

    def __init__(self) -> None:
        self.state = HealthState.HEALTHY
        self.events: List[FaultEvent] = []
        self.counters = ServiceCounters()
        #: The confirmed fault's observationally-equivalent hypothesis
        #: class — ``(coordinate, stuck value)`` pairs — once confirmed.
        self.confirmed_faults: List[Tuple[Any, int]] = []
        self._listeners: List[Callable[[FaultEvent], None]] = []

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[FaultEvent], None]) -> None:
        """Register a hook called once per emitted event."""
        self._listeners.append(listener)

    def emit(
        self,
        kind: str,
        batch: Any,
        detail: str,
        **data: Any,
    ) -> FaultEvent:
        event = FaultEvent(
            sequence=len(self.events),
            kind=kind,
            batch=batch,
            detail=detail,
            data=data,
        )
        self.events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def transition(self, target: HealthState) -> None:
        if target is self.state:
            return
        if (self.state, target) not in _TRANSITIONS:
            raise FaultServiceError(
                f"illegal health transition {self.state.value} -> "
                f"{target.value}"
            )
        self.state = target

    @property
    def is_quarantined(self) -> bool:
        return self.state is HealthState.QUARANTINED

    def confirm(self, candidates: List[Tuple[Any, int]]) -> None:
        """Record the confirmed hypothesis class and advance the state."""
        self.transition(HealthState.CONFIRMED)
        self.confirmed_faults = list(candidates)

    def event_kinds(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for event in self.events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram


class HealthMonitor:
    """A :class:`~repro.sim.monitors.Probe`-style event consumer.

    Attach to a registry (or a :class:`~repro.service.ResilientFabric`)
    and it accumulates the event history plus a per-kind count,
    exposing the same "how many transitions / what happened last"
    queries the simulator probes do for signals.
    """

    def __init__(self, registry: Optional[FaultRegistry] = None) -> None:
        self.history: List[FaultEvent] = []
        if registry is not None:
            registry.add_listener(self.on_event)

    def on_event(self, event: FaultEvent) -> None:
        self.history.append(event)

    @property
    def event_count(self) -> int:
        return len(self.history)

    def last(self) -> Optional[FaultEvent]:
        return self.history[-1] if self.history else None

    def count_of(self, kind: str) -> int:
        return sum(event.kind == kind for event in self.history)

    def render(self) -> str:
        """The event log as one line per event (empty-safe)."""
        if not self.history:
            return "(no fault events)"
        return "\n".join(str(event) for event in self.history)
