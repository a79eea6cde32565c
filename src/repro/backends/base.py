"""The :class:`RoutingBackend` protocol and the table of serving backends.

A backend is a compiled permutation-routing engine the serving layer
(and the offline arena in :mod:`repro.backends.arena`) drives through
one contract: built **once per (backend, m)** and cached process-wide,
exposing ``route_frame`` / ``route_frame_batch`` over int64 numpy
address arrays.  Both return *sources*: ``sources[line]`` is the input
line whose word arrives on output ``line`` (``sources[b, line]`` for
the batch form), the same convention as
:func:`repro.core.pipeline_fast.route_frame_sources`.

:data:`BACKENDS` names the two engines that serve: the compiled BNB
dataplane (``"bnb"``) and the multiway sorter (``"msorter"``).  The
rival fabrics the paper argues against stay analysis routers
(``repro verify --network benes``), not serving engines.

Compilation cost (comparator stage indices, the BNB stage plan) is
therefore paid once per process per size — the :func:`prewarm` hook
lets the gateway pay it at boot instead of on the first served frame.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Protocol, runtime_checkable

import numpy as np

from .bnb import BNBVectorBackend
from .msorter import MultiwaySorterBackend

__all__ = [
    "BACKENDS",
    "RoutingBackend",
    "backend_names",
    "compiled_backend",
    "prewarm",
]


@runtime_checkable
class RoutingBackend(Protocol):
    """A compiled permutation-routing engine for one network size.

    Implementations carry their compile-once state (index tables,
    network objects) as instance attributes; the route methods must not
    mutate shared tables, so one compiled engine can serve every plane
    of its size concurrently.
    """

    #: Name of the backend that compiled this engine.
    name: str
    #: Size exponent; the engine routes frames of ``n = 2**m`` words.
    m: int
    #: Frame width.
    n: int

    def route_frame(self, addresses: np.ndarray) -> np.ndarray:
        """Route one frame; return the per-output source-line array.

        *addresses* is a length-``n`` int64 permutation of
        ``0 .. n-1``; ``result[line]`` is the input line whose word
        arrives on output ``line``.
        """
        ...

    def route_frame_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Route a ``(batch, n)`` stack of independent frames at once."""
        ...


#: name -> engine class; each class compiles its engine from ``m``.
BACKENDS = {"bnb": BNBVectorBackend, "msorter": MultiwaySorterBackend}


def backend_names() -> List[str]:
    """Serving backend names, sorted — the CLI choices source."""
    return sorted(BACKENDS)


@functools.lru_cache(maxsize=None)
def compiled_backend(name: str, m: int) -> RoutingBackend:
    """The compile-once engine for ``(backend, m)``, cached per process.

    Every plane, arena pass and CLI invocation of a given size shares
    one compiled engine, exactly like
    :func:`repro.core.plan.compiled_plan` shares its stage plan.
    """
    if m < 1:
        raise ValueError(f"a routing backend needs m >= 1, got {m}")
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {backend_names()}"
        ) from None
    return factory(m)


def prewarm(m: int, names: Optional[List[str]] = None) -> List[str]:
    """Compile the named backends (default: all) for size *m* now.

    Also warms the shared :func:`~repro.core.plan.compiled_plan` table
    cache, so a server that calls this at boot pays zero compile
    latency on its first frame.  Returns the names compiled.
    """
    from ..core.plan import compiled_plan

    compiled_plan(m)
    chosen = backend_names() if names is None else list(names)
    for name in chosen:
        compiled_backend(name, m)
    return chosen
