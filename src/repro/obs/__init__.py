"""Production observability: metrics registry, exposition, scrape endpoint.

The serving stack instruments itself against a per-process default
:class:`MetricsRegistry` (:func:`get_registry`): the engine's LRU cache,
the sharded store's residency cache, the write-ahead log, background
compaction, the admission queue, the socket server and the replication
mirror each register counters/gauges/histograms at construction and
increment them on their hot paths (lock-striped; see
:mod:`repro.obs.registry`).

The registry is surfaced three ways:

* ``QueryService.stats()`` embeds :meth:`MetricsRegistry.snapshot` — a
  JSON-safe plain-dict view — under ``"metrics"``;
* the idempotent ``metrics`` request op answers the rendered Prometheus
  text (:func:`render_prometheus`) over the existing socket protocol;
* :class:`MetricsHTTPServer` serves ``GET /metrics`` over plain HTTP
  (``repro serve --metrics-port N``) for off-the-shelf scrapers, plus
  ``/healthz`` (liveness) and ``/readyz`` (readiness) probes.

Per-request tracing lives in :mod:`repro.obs.trace`: a sampled
:class:`Tracer` (probabilistic + always-on-slow) collects per-tier
:class:`Span` trees into a bounded ring, with trace context propagated
over the socket protocol's optional ``trace`` request field.  Surfaced
by the ``trace`` op, ``stats()["tracing"]`` and ``repro trace``.

See README "Observability" for the metric and span catalogues.
"""

from repro.obs.http import MetricsHTTPServer
from repro.obs.process import register_process_metrics
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    TraceBuffer,
    Tracer,
    get_tracer,
    render_trace,
    set_tracer,
    use_tracer,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NullRegistry",
    "Span",
    "TraceBuffer",
    "Tracer",
    "get_registry",
    "get_tracer",
    "register_process_metrics",
    "render_prometheus",
    "render_trace",
    "set_registry",
    "set_tracer",
    "use_registry",
    "use_tracer",
]
