"""The BNB engine behind the :class:`RoutingBackend` protocol.

``"bnb"`` is the compiled vector dataplane.  ``route_frame`` is
:func:`~repro.core.pipeline_fast.route_frame_sources` (one frame, all
``m`` main stages as numpy gathers) and ``route_frame_batch`` is
:func:`~repro.core.pipeline_fast.route_frame_batch` (the frame-axis
kernel behind the gateway's ``engine="bnb"``
:class:`~repro.server.planes.BackendPlane`) — one protocol object.  The
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
        # Compile-once: the per-m gather plan both kernels run on.
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
