"""Pluggable compiled routing backends with an offline arena.

One :class:`~repro.backends.base.RoutingBackend` protocol over the BNB
dataplane and the rival fabrics (KR-Benes, multiway sorter), a registry
of compiled-once-per-``m`` engines the gateway pins by name
(``engine="bnb"``, ``"msorter"``, ...), and the arena
(:mod:`repro.backends.arena`) that benchmarks every registered backend
per ``(m, workload class)`` — with crossbar differential verification —
so an operator can pick the measured winner.  See ``docs/backends.md``.
"""

from .base import (
    BackendSpec,
    RoutingBackend,
    backend_names,
    backend_specs,
    compile_cache_info,
    compiled_backend,
    get_backend_spec,
    prewarm,
    register_backend,
)

# Importing the implementation modules registers the built-in backends.
from . import bnb as _bnb  # noqa: F401  (registration side effect)
from . import krbenes as _krbenes  # noqa: F401
from . import msorter as _msorter  # noqa: F401

from .arena import (
    ArenaDecision,
    BackendDisagreementError,
    WORKLOADS,
    calibrate,
    clear_arena_cache,
    select_backend,
    verify_backend,
)

__all__ = [
    "ArenaDecision",
    "BackendDisagreementError",
    "BackendSpec",
    "RoutingBackend",
    "WORKLOADS",
    "backend_names",
    "backend_specs",
    "calibrate",
    "clear_arena_cache",
    "compile_cache_info",
    "compiled_backend",
    "get_backend_spec",
    "prewarm",
    "register_backend",
    "select_backend",
    "verify_backend",
]
