"""The BNB engine behind the :class:`RoutingBackend` protocol.

``"bnb"`` is the packed BNB kernel of :mod:`repro.core.pipeline_fast`.
``route_frame`` is :func:`~repro.core.pipeline_fast.route_frame_sources`
(a lone frame, routed as a batch of one) and ``route_frame_batch`` is
:func:`~repro.core.pipeline_fast.route_frame_batch` (a whole window,
behind the gateway's ``engine="bnb"``
:class:`~repro.server.planes.BackendPlane`) — one kernel, one protocol
object.  The
only backend that supports fault masks: both methods take an optional
``mask`` and reproduce the faulty fabric's arrival order.  The object
model (:meth:`~repro.core.bnb.BNBNetwork.route`) is the reference
oracle and the ``object`` gateway engine, not a backend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import FaultMask, compiled_plan
from ..core.pipeline_fast import route_frame_batch, route_frame_sources

__all__ = ["BNBVectorBackend"]


class BNBVectorBackend:
    """The compiled BNB dataplane as a protocol backend."""

    name = "bnb"

    def __init__(self, m: int) -> None:
        self.m = m
        self.n = 1 << m
        # Compile-once: the per-m stage plan the kernel runs on.
        self.plan = compiled_plan(m)

    def route_frame(
        self, addresses: np.ndarray, mask: Optional[FaultMask] = None
    ) -> np.ndarray:
        return route_frame_sources(self.m, addresses, mask=mask)

    def route_frame_batch(
        self, addresses: np.ndarray, mask: Optional[FaultMask] = None
    ) -> np.ndarray:
        return route_frame_batch(self.m, addresses, mask=mask)

    def __repr__(self) -> str:
        return f"BNBVectorBackend(m={self.m}, n={self.n})"
