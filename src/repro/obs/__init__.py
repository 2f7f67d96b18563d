"""Observability for the serve stack: tracing, metrics, flight data.

``repro.obs`` is always importable and off by default: nothing in the
serve stack records anything until a live :class:`Observer` is attached
(``ServeCluster(observer=...)`` or the CLI's ``--trace-out`` /
``--metrics-out`` / ``--flight-recorder`` flags). The pieces:

* :class:`Tracer` — bounded ring buffer of typed spans and instants
  with deterministic per-request sampling;
* :class:`MetricsRegistry` — counters, gauges, and P² streaming
  quantile histograms, snapshotable into a metrics timeline;
* :class:`FlightRecorder` — freezes the recent past on shed bursts and
  SLO breaches;
* :class:`Observer` — the facade the engine calls; fans events out to
  whichever sinks are attached;
* exporters — Chrome trace-event JSON (Perfetto-loadable) and flat
  metrics timelines (JSON/CSV).
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, P2Quantile
from repro.obs.observer import Observer, make_observer, resolve_observer
from repro.obs.tracer import TraceEvent, Tracer
from repro.obs.export import (
    chrome_trace,
    chrome_trace_text,
    load_chrome_trace,
    metrics_csv,
    metrics_rows,
    save_chrome_trace,
    save_metrics,
    summarize_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "P2Quantile",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "chrome_trace_text",
    "load_chrome_trace",
    "make_observer",
    "metrics_csv",
    "metrics_rows",
    "resolve_observer",
    "save_chrome_trace",
    "save_metrics",
    "summarize_chrome_trace",
    "validate_chrome_trace",
]
