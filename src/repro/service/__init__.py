"""Online fault-tolerance service for the BNB fabric.

Where :mod:`repro.faults` runs offline *experiments* (inject a known
fault, measure the damage), this package runs the online *service*
loop: verify every batch, retry misdelivered words with backoff,
diagnose via BIST probes and syndrome decoding, quarantine the
confirmed fault and fail over to a rearrangeable Benes spare plane.

Entry points: :class:`ResilientFabric` on the object model and
:class:`ResilientBNBFabric` on the compiled ``bnb`` kernel.  Book-keeping types
(:class:`HealthState`, :class:`FaultEvent`, :class:`ServiceCounters`,
:class:`HealthMonitor`) live in :mod:`repro.service.registry`.
"""

from .fabric import (
    BatchResult,
    CompiledBenesFailover,
    ResilientBNBFabric,
    ResilientFabric,
)
from .registry import (
    FaultEvent,
    FaultRegistry,
    HealthMonitor,
    HealthState,
    ServiceCounters,
)

__all__ = [
    "ResilientFabric",
    "ResilientBNBFabric",
    "CompiledBenesFailover",
    "BatchResult",
    "FaultEvent",
    "FaultRegistry",
    "HealthMonitor",
    "HealthState",
    "ServiceCounters",
]
