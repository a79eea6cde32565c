"""Async traffic gateway: serving live traffic over the BNB fabric.

Where :mod:`repro.core.traffic` answers "how does messy traffic map
onto the permutation contract" for one offline batch, this package
keeps answering it forever, online, for concurrent clients:

* :mod:`repro.server.voq` — per-destination **virtual output queues**
  as int64 rings, with bounded-depth admission control
  (reject-with-retry-after, never unbounded buffering);
* :mod:`repro.server.scheduler` — the **frame scheduler** that pops a
  whole window of conflict-free full permutations at once (one
  head-of-line word per destination per frame, idle-filled exactly as
  :func:`~repro.core.traffic.coalesce_frame` would);
* :mod:`repro.server.planes` — **fabric planes**: clocked pipelined
  planes on the object or compiled-numpy engine, windowed batch planes
  on any registered routing backend, or
  :class:`~repro.service.ResilientFabric`-wrapped planes that survive
  physical faults; a faulty plane drains, its words requeue, and the
  other planes serve on;
* :mod:`repro.server.gateway` — the **asyncio dataplane** tying them
  together: ``await gateway.send(dest, payload)`` returns a delivery
  receipt, ``await gateway.send_batch(dests)`` a per-word
  :class:`~repro.server.gateway.BatchResult`; a clock task schedules
  frames onto the least-loaded plane;
* :mod:`repro.server.ops` — the **declarative op registry** every wire
  framing dispatches through (one :class:`~repro.server.ops.OpSpec`
  per protocol operation, stable error-slug mapping);
* :mod:`repro.server.framing` — the **binary wire framing**
  (length-prefixed header + JSON meta + packed ``int64`` array
  payload) and the protocol version;
* :mod:`repro.server.protocol` — the **TCP server** hosting both the
  JSON-lines and the binary framing on one auto-detecting port
  (``repro serve`` hosts it; :class:`repro.client.GatewayClient`
  speaks it).

See ``docs/serving.md`` for the architecture, the backpressure
contract and the full wire specification.
"""

from .framing import MAGIC, PROTOCOL_VERSION
from .gateway import AsyncGateway, BatchResult, GatewayConfig, Receipt
from .ops import REGISTRY, OpSpec
from .planes import BackendPlane, PipelinedPlane, ResilientPlane
from .protocol import GatewayServer
from .scheduler import FrameScheduler, ScheduledFrame
from .voq import DEFAULT_TENANT, VirtualOutputQueues

__all__ = [
    "AsyncGateway",
    "DEFAULT_TENANT",
    "BatchResult",
    "BackendPlane",
    "GatewayConfig",
    "GatewayServer",
    "FrameScheduler",
    "MAGIC",
    "OpSpec",
    "PROTOCOL_VERSION",
    "PipelinedPlane",
    "REGISTRY",
    "Receipt",
    "ResilientPlane",
    "ScheduledFrame",
    "VirtualOutputQueues",
]
