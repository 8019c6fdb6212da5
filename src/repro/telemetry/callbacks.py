"""Shipped callbacks: trace writing and progress.

The :class:`Callback` base mirrors LBANN's callback architecture: a
callback subscribes to a :class:`~repro.telemetry.events.TelemetryHub`
and receives every event, dispatched both generically (:meth:`on_event`)
and to per-type hooks (``on_step_end``, ``on_tournament``, ...).  Drivers
additionally call the :meth:`on_run_begin` / :meth:`on_run_end` lifecycle
hooks around a full run.
"""

from __future__ import annotations

import enum
import json
import math
import sys
import time
from typing import IO, Mapping

import numpy as np

from repro.telemetry.events import TelemetryEvent

__all__ = [
    "Callback",
    "JsonlTraceWriter",
    "ProgressLogger",
]


class Callback:
    """Base class for telemetry consumers.

    Subclasses override any subset of the per-type hooks (named
    ``on_<event type>``) and/or the catch-all :meth:`on_event`; both are
    called for every event, per-type hook first.
    """

    #: Set True (class- or instance-level) to request span tracing: a
    #: driver calls ``telemetry.start_tracing()`` when any attached
    #: callback wants spans.  Off by default — span instrumentation is
    #: a no-op branch in an untraced run.
    wants_spans = False

    def handle(self, event: TelemetryEvent) -> None:
        hook = getattr(self, f"on_{event.type}", None)
        if hook is not None:
            hook(event)
        self.on_event(event)

    # -- generic + lifecycle hooks ------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        """Called for every event, after the per-type hook."""

    def on_run_begin(self, driver) -> None:
        """Called by a driver before its first round."""

    def on_run_end(self, driver, history) -> None:
        """Called by a driver after its last round (also on error exit)."""

    def on_run_error(self, driver, exc: BaseException) -> None:
        """Called by a driver when its round loop raises, *before*
        ``on_run_end`` — the last chance to capture in-flight state (the
        flight recorder dumps its post-mortem bundle here).  Exceptions
        from this hook are swallowed so they cannot mask ``exc``."""


def _jsonify(value):
    """Coerce payload values to JSON-encodable types."""
    if isinstance(value, enum.Enum):
        return _jsonify(value.value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _event_record(event: TelemetryEvent) -> dict:
    """One event as trace lines and flight-recorder bundles store it:
    type, time (to the nanosecond), sequence, then the payload."""
    return {
        "type": event.type,
        "time_s": round(event.time_s, 9),
        "sequence": event.sequence,
        **_jsonify(event.payload),
    }


def _run_metadata(driver) -> dict:
    """The run description trace headers and flight-recorder bundles
    carry: driver class, rounds, population, backend and worker count."""
    return {
        "driver": type(driver).__name__,
        "rounds": getattr(driver.config, "rounds", None),
        "population": [t.name for t in driver.trainers],
        "backend": driver.backend.name,
        "workers": driver.backend.num_workers,
    }


class JsonlTraceWriter(Callback):
    """Writes one JSON object per event to a trace file.

    The output is the interchange format of the subsystem.  The first
    line is a versioned **header record** —
    ``{"type": "trace_header", "version": ..., "created_unix": ...,
    "clock_origin_unix": ..., "run": {...}}`` — carrying the schema
    version, the wall-clock instant of the trace's ``time_s == 0``, and
    run metadata (driver class, population, backend, plus anything passed
    as ``metadata``).  Every following line is one event:
    ``{"type": ..., "time_s": ..., "sequence": ..., **payload}``,
    parseable with one ``json.loads`` per line; ``trace-report`` and
    ``trace-export`` validate the header and summarize the rest.

    Pass ``spans=True`` to request span tracing for the run the writer is
    attached to (sets :attr:`~Callback.wants_spans`; drivers enable the
    hub tracer when any attached callback asks).

    The file opens lazily on the first event and closes — with a
    guaranteed flush — on :meth:`on_run_end` (or an explicit
    :meth:`close`); the writer can also be used as a context manager.
    Closing a writer that never saw an event still produces a valid
    header-only trace.
    """

    #: Trace schema version; bumped when record shapes change
    #: incompatibly (3: ``alert`` is the only warning event, ``health``
    #: is gone).  Version 1 traces (pre-header) are still readable — the
    #: header is optional on load — but new traces always carry one.
    SCHEMA_VERSION = 3

    def __init__(self, path, metadata: Mapping | None = None,
                 spans: bool = False) -> None:
        self.path = path
        self.metadata = dict(metadata) if metadata else {}
        self.wants_spans = bool(spans)
        self._fh: IO[str] | None = None
        self.events_written = 0
        self._mode = "w"
        self._run_meta: dict = {}
        self._clock_origin: float | None = None

    def on_run_begin(self, driver) -> None:
        # Captured for the header; harmless if the file already opened
        # (events before run_begin only happen outside driver runs).
        self._run_meta = _run_metadata(driver)
        self._clock_origin = driver.telemetry.wall_origin

    def _file(self) -> IO[str]:
        if self._fh is None:
            fresh = self._mode == "w"
            self._fh = open(self.path, self._mode, encoding="utf-8")
            # A straggler event after close() (e.g. from a still-running
            # prefetch thread) must append, not truncate the trace.
            self._mode = "a"
            if fresh:
                self._write_header()
        return self._fh

    def _write_header(self) -> None:
        header = {
            "type": "trace_header",
            "version": self.SCHEMA_VERSION,
            "created_unix": time.time(),
            "clock_origin_unix": self._clock_origin,
            "run": {**self._run_meta, **_jsonify(self.metadata)},
        }
        self._fh.write(json.dumps(header) + "\n")

    def on_event(self, event: TelemetryEvent) -> None:
        self._file().write(json.dumps(_event_record(event)) + "\n")
        self.events_written += 1

    def on_run_end(self, driver, history) -> None:
        self.close()

    def close(self) -> None:
        """Flush and close; guarantees the header exists even for a run
        that produced no events."""
        if self._fh is None and self._mode == "w":
            self._file()
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProgressLogger(Callback):
    """Prints a one-line summary per round (the ``on_round`` replacement).

    Shows the round index, the train-phase time, and — when the driver
    evaluates on a global batch — the population-best value of ``metric``.
    ``alert`` events (from a :class:`~repro.telemetry.live.
    LiveAggregator` subscribed alongside) print as indented ``health[...]``
    lines under the round they surfaced in; any still pending at run end
    (e.g. raised by the final round's own ``round_end`` processing) are
    flushed then.
    """

    def __init__(self, stream: IO[str] | None = None, metric: str = "val_loss") -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.metric = metric
        self._last_eval: Mapping | None = None
        self._total_rounds: int | None = None
        self._pending_health: list[str] = []

    def on_run_begin(self, driver) -> None:
        self._total_rounds = driver.config.rounds

    def on_eval(self, event: TelemetryEvent) -> None:
        # Quality-probe EVAL events carry ``divergence`` instead of
        # ``metrics``; the round line only renders driver eval snapshots.
        metrics = event.payload.get("metrics")
        if metrics is not None:
            self._last_eval = metrics

    def on_alert(self, event: TelemetryEvent) -> None:
        p = event.payload
        self._pending_health.append(
            f"  health[{p.get('severity', 'warning')}] "
            f"{p.get('kind', '?')}: {p.get('message', '')}"
        )

    def on_round_end(self, event: TelemetryEvent) -> None:
        r = event.payload["round"]
        label = f"round {r}" if self._total_rounds is None else (
            f"round {r + 1}/{self._total_rounds}"
        )
        line = f"[{label}] train {event.payload['train_s']:.2f}s"
        if self._last_eval is not None:
            # NaN compares false both ways, so min() over it would depend
            # on trainer order: only finite readings compete.
            values = [m[self.metric] for m in self._last_eval.values()]
            best = min(
                (v for v in values if math.isfinite(v)), default=math.nan
            )
            line += f", best {self.metric} {best:.4f}"
            self._last_eval = None
        print(line, file=self.stream)
        self._flush_health()

    def on_run_end(self, driver, history) -> None:
        self._flush_health()

    def _flush_health(self) -> None:
        for line in self._pending_health:
            print(line, file=self.stream)
        self._pending_health.clear()
