"""Telemetry for the serving stack: metrics, traces, exposition.

Dependency-free observability (see ``docs/observability.md``):

* :mod:`~repro.obs.registry` — Counter/Gauge/Histogram primitives with
  labels, a :class:`Registry` that renders Prometheus text and JSON;
* :mod:`~repro.obs.tracing` — sampled per-frame trace records with
  bounded ring-buffer retention;
* :mod:`~repro.obs.instrument` — the glue that hooks a live
  :class:`~repro.server.gateway.AsyncGateway` (and its planes and
  resilient fabrics) into a registry;
* :mod:`~repro.obs.snapshot` — the one JSON serialization every CLI
  and wire surface shares.

Quick start::

    from repro.obs import GatewayInstrumentation, Registry

    instrumentation = GatewayInstrumentation(
        gateway, registry=Registry()
    ).attach()
    ...
    print(instrumentation.render_prometheus())
"""

from .instrument import GatewayInstrumentation
from .registry import (
    CYCLE_BUCKETS,
    RATIO_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
    set_registry,
)
from .snapshot import dump_json, sanitize
from .tracing import FrameTrace, FrameTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "get_registry",
    "set_registry",
    "CYCLE_BUCKETS",
    "RATIO_BUCKETS",
    "SECONDS_BUCKETS",
    "FrameTrace",
    "FrameTracer",
    "GatewayInstrumentation",
    "dump_json",
    "sanitize",
]
