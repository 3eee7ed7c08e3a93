"""Exporters: JSON snapshots, Prometheus text format, snapshot diffing.

A snapshot is the deterministic dict produced by
:meth:`MetricsRegistry.snapshot`, optionally wrapped with metadata and
a span-tree dump.  Snapshots serialize with ``sort_keys=True`` so the
same measured work always yields byte-identical files — the property
the determinism tests and the ``repro.obs.report`` CLI rely on.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanSink

SNAPSHOT_VERSION = 1


def snapshot(
    registry: MetricsRegistry,
    sink: SpanSink | None = None,
    meta: dict[str, Any] | None = None,
) -> dict:
    """A full observability snapshot: metrics plus (optionally) traces."""
    out: dict[str, Any] = {"version": SNAPSHOT_VERSION}
    if meta:
        out["meta"] = dict(sorted(meta.items()))
    out["metrics"] = registry.snapshot()
    if sink is not None:
        out["traces"] = sink.to_dict()
    return out


def dumps(snap: dict) -> str:
    """Canonical JSON serialization (byte-stable for identical content)."""
    return json.dumps(snap, sort_keys=True, indent=2) + "\n"


def write_snapshot(
    path: str,
    registry: MetricsRegistry,
    sink: SpanSink | None = None,
    meta: dict[str, Any] | None = None,
) -> dict:
    """Write a snapshot file; returns the snapshot dict."""
    snap = snapshot(registry, sink=sink, meta=meta)
    with open(path, "w") as handle:
        handle.write(dumps(snap))
    return snap


def load_snapshot(path: str) -> dict:
    """Read back a snapshot file written by :func:`write_snapshot`."""
    with open(path) as handle:
        return json.load(handle)


# -- Prometheus text format ----------------------------------------------------


def _prom_name(name: str) -> str:
    """Metric names: dots (our namespace separator) become underscores."""
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{merged[k]}"' for k in sorted(merged))
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """The registry in Prometheus exposition text format (sorted)."""
    lines: list[str] = []
    snap_counters = sorted(
        registry._counters.values(), key=lambda h: (h.name, sorted(h.labels.items()))
    )
    seen_types: set[str] = set()
    for handle in snap_counters:
        full = f"{prefix}_{_prom_name(handle.name)}_total"
        if full not in seen_types:
            seen_types.add(full)
            lines.append(f"# TYPE {full} counter")
        lines.append(f"{full}{_prom_labels(handle.labels)} {handle.value}")
    for handle in sorted(
        registry._gauges.values(), key=lambda h: (h.name, sorted(h.labels.items()))
    ):
        full = f"{prefix}_{_prom_name(handle.name)}"
        if full not in seen_types:
            seen_types.add(full)
            lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full}{_prom_labels(handle.labels)} {handle.value}")
    for handle in sorted(
        registry._histograms.values(), key=lambda h: (h.name, sorted(h.labels.items()))
    ):
        full = f"{prefix}_{_prom_name(handle.name)}"
        if full not in seen_types:
            seen_types.add(full)
            lines.append(f"# TYPE {full} histogram")
        for bound, cumulative in handle.cumulative():
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            lines.append(
                f"{full}_bucket{_prom_labels(handle.labels, {'le': le})} {cumulative}"
            )
        lines.append(f"{full}_sum{_prom_labels(handle.labels)} {handle.sum}")
        lines.append(f"{full}_count{_prom_labels(handle.labels)} {handle.count}")
    return "\n".join(lines) + "\n"


# -- snapshot diffing ----------------------------------------------------------


def diff_snapshots(before: dict, after: dict) -> dict:
    """Structured difference between two snapshots.

    Counters and gauges diff by value; histograms diff by count and sum.
    Returns ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
    where each entry maps a metric key to ``{"before", "after", "delta"}``
    and includes metrics present on only one side (the missing side reads
    as 0).  Keys with zero delta are omitted.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_metrics = before.get("metrics", before)
    after_metrics = after.get("metrics", after)
    for section in ("counters", "gauges"):
        b = before_metrics.get(section, {})
        a = after_metrics.get(section, {})
        for key in sorted(set(b) | set(a)):
            bv = b.get(key, 0)
            av = a.get(key, 0)
            if av != bv:
                out[section][key] = {"before": bv, "after": av, "delta": av - bv}
    b_hist = before_metrics.get("histograms", {})
    a_hist = after_metrics.get("histograms", {})
    for key in sorted(set(b_hist) | set(a_hist)):
        bh = b_hist.get(key, {"count": 0, "sum": 0.0})
        ah = a_hist.get(key, {"count": 0, "sum": 0.0})
        if ah.get("count", 0) != bh.get("count", 0) or ah.get("sum", 0.0) != bh.get(
            "sum", 0.0
        ):
            out["histograms"][key] = {
                "count_before": bh.get("count", 0),
                "count_after": ah.get("count", 0),
                "count_delta": ah.get("count", 0) - bh.get("count", 0),
                "sum_delta": ah.get("sum", 0.0) - bh.get("sum", 0.0),
            }
    return out
