"""Telemetry: the event-bus + callback observability layer.

Modeled on LBANN's callback architecture.  Instrumented components — the
population drivers, :class:`~repro.core.trainer.Trainer`,
:class:`~repro.datastore.store.DistributedDataStore`, and
:mod:`repro.core.checkpoint` — emit typed events into a
:class:`TelemetryHub`; :class:`Callback` subscribers consume them.

Shipped callbacks:

- :class:`JsonlTraceWriter` — one JSON object per event to a trace file
  (versioned header first; pass ``spans=True`` to enable span tracing);
- :class:`ProgressLogger` — one line per round (plus in-line health
  alerts);
- :class:`MetricsCollector` — the run's one cumulative fold, live and
  offline (:func:`collect_metrics`, behind ``trace-report``): per-phase
  wall clock, steps, tournaments and adoptions, exchange traffic,
  datastore locality, data-path stall vs. overlap (per worker too),
  checkpoint and ingest counters, as counters/gauges/histograms with
  p50/p95/p99 summaries, exportable as JSON or Prometheus text;
- :class:`ResourceSampler` — periodic peak-RSS/CPU readings of the driver
  process as ``resource_sample`` events (execution backends add worker
  samples), surfaced in ``trace-report``, metrics gauges, and Perfetto
  counter tracks;
- :class:`LiveAggregator` / :class:`FlightRecorder` — the live
  observability plane (:mod:`repro.telemetry.live`): the one run-health
  path and the one state fold — windowed rollups, probe quality, the
  pairing census and resource rows, plus six rules (NaN loss, stall
  regression, win-rate collapse, quality collapse, ingest backpressure,
  serve SLO burn) whose :class:`Alert` rows land in
  ``History.health_warnings`` *during* the run and on the bus as
  ``alert`` events — and a bounded ring of recent events dumped as a
  post-mortem bundle on crash/critical alert/SIGTERM.

Offline, ``trace-report`` and ``python -m repro.telemetry watch`` read a
trace through one validating parser (:class:`~repro.telemetry.report.
TraceReader`) and render the same two folds of it: the collector's and
the aggregator's.

Profiling spans (:mod:`repro.telemetry.spans`) ride the same bus as
``span`` events when tracing is enabled
(:meth:`TelemetryHub.start_tracing`, requested by any callback with
``wants_spans=True``); ``trace-export`` converts them to Chrome/Perfetto
JSON.

Typical use::

    from repro.telemetry import (JsonlTraceWriter, LiveAggregator,
                                 MetricsCollector)

    metrics = MetricsCollector()
    history = driver.run(callbacks=[
        JsonlTraceWriter("trace.jsonl", spans=True), metrics,
        LiveAggregator(),
    ])
    print(metrics.phase_seconds["train"].value, history.healthy)
    print(metrics.registry.render_prometheus())

and afterwards ``python -m repro.experiments trace-report trace.jsonl``
/ ``trace-export trace.jsonl -o trace.json``.
"""

from repro.telemetry.callbacks import (
    Callback,
    JsonlTraceWriter,
    ProgressLogger,
)
from repro.telemetry.events import (
    ALERT,
    CHECKPOINT,
    DATASTORE_FETCH,
    EVAL,
    EVENT_TYPES,
    EXCHANGE,
    FETCH_STALL,
    PREFETCH_FILL,
    RESOURCE_SAMPLE,
    ROUND_END,
    SERVE,
    SPAN,
    STEP_END,
    TOURNAMENT,
    TelemetryEvent,
    TelemetryHub,
)
from repro.telemetry.export import chrome_trace, export_chrome_trace
from repro.telemetry.live import (
    Alert,
    AlertEngine,
    FlightRecorder,
    LiveAggregator,
    RollingWindow,
    load_bundle,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    collect_metrics,
    render_metrics,
    write_metrics,
)
from repro.telemetry.report import (
    load_trace,
    load_trace_header,
    render_trace_report,
    trace_summary,
)
from repro.telemetry.resources import (
    ResourceSampler,
    emit_resource_sample,
    sample_resources,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "TelemetryEvent",
    "TelemetryHub",
    "EVENT_TYPES",
    "STEP_END",
    "ROUND_END",
    "TOURNAMENT",
    "EXCHANGE",
    "EVAL",
    "DATASTORE_FETCH",
    "FETCH_STALL",
    "PREFETCH_FILL",
    "CHECKPOINT",
    "SPAN",
    "ALERT",
    "SERVE",
    "RESOURCE_SAMPLE",
    "Callback",
    "JsonlTraceWriter",
    "ProgressLogger",
    "Tracer",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "collect_metrics",
    "render_metrics",
    "write_metrics",
    "RollingWindow",
    "Alert",
    "AlertEngine",
    "LiveAggregator",
    "FlightRecorder",
    "load_bundle",
    "ResourceSampler",
    "sample_resources",
    "emit_resource_sample",
    "chrome_trace",
    "export_chrome_trace",
    "load_trace",
    "load_trace_header",
    "render_trace_report",
    "trace_summary",
]
