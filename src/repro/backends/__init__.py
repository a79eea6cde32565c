"""Compiled routing backends with an offline arena.

One :class:`~repro.backends.base.RoutingBackend` protocol over the BNB
dataplane and the multiway sorter, a table (:data:`BACKENDS`) of
compiled-once-per-``m`` engines the gateway pins by name
(``engine="bnb"``, ``"msorter"``), and the arena
(:mod:`repro.backends.arena`) that benchmarks every backend per
``(m, workload class)`` — with crossbar differential verification —
so an operator can pick the measured winner.  See ``docs/backends.md``.
"""

from .base import (
    BACKENDS,
    RoutingBackend,
    backend_names,
    compiled_backend,
    prewarm,
)
from .arena import (
    ArenaDecision,
    BackendDisagreementError,
    WORKLOADS,
    calibrate,
    select_backend,
    verify_backend,
)

__all__ = [
    "ArenaDecision",
    "BACKENDS",
    "BackendDisagreementError",
    "RoutingBackend",
    "WORKLOADS",
    "backend_names",
    "calibrate",
    "compiled_backend",
    "prewarm",
    "select_backend",
    "verify_backend",
]
