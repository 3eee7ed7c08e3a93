"""Unified observability: metrics registry, trace spans, exporters.

The paper's load management and QoS machinery (box sliding, splitting,
shedding, Medusa contract decisions) presuppose continuous measurement:
"These statistics can be monitored and maintained in an approximate
fashion over a running network" (Section 7.1).  This package is the
common substrate those statistics monitors publish into and every
policy reads from:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms, namespaced by ``node``/``box``/``arc``/``stream`` labels,
  cheap enough to stay on by default (no-op handles when disabled,
  batch-aware increments so the batched execution path charges one
  update per tuple train, not per tuple);
* :mod:`repro.obs.trace` — trace spans carried on tuples through
  engine claims, transport frames, HA chain forwarding and Medusa
  bridges, with a deterministic sampling knob and a span sink that
  reconstructs end-to-end tuple lineage across nodes;
* :mod:`repro.obs.export` — JSON snapshots, Prometheus text format,
  and snapshot diffing;
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` CLI
  that diffs two snapshots.
"""

from repro.obs.export import (
    diff_snapshots,
    load_snapshot,
    render_prometheus,
    snapshot,
    write_snapshot,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.obs.trace import Span, SpanSink, TraceColumn, TraceContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "Span",
    "SpanSink",
    "TraceColumn",
    "TraceContext",
    "Tracer",
    "diff_snapshots",
    "load_snapshot",
    "render_prometheus",
    "snapshot",
    "write_snapshot",
]
