"""Shipped callbacks: trace writing, timing, counting, progress.

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
import sys
from typing import IO, Mapping

import numpy as np

from repro.telemetry.events import TelemetryEvent

__all__ = [
    "Callback",
    "JsonlTraceWriter",
    "WallClockTimer",
    "CounterAggregator",
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

    def on_run_begin(self, driver) -> None:
        # Captured for the header; harmless if the file already opened
        # (events before run_begin only happen outside driver runs).
        self._run_meta = {
            "driver": type(driver).__name__,
            "rounds": getattr(driver.config, "rounds", None),
            "population": [t.name for t in driver.trainers],
            "backend": driver.backend.name,
            "workers": driver.backend.num_workers,
            "clock_origin_unix": driver.telemetry.wall_origin,
        }

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
        import time as _time

        meta = dict(self._run_meta)
        header = {
            "type": "trace_header",
            "version": self.SCHEMA_VERSION,
            "created_unix": _time.time(),
            "clock_origin_unix": meta.pop("clock_origin_unix", None),
            "run": {**meta, **_jsonify(self.metadata)},
        }
        self._fh.write(json.dumps(header) + "\n")

    def on_event(self, event: TelemetryEvent) -> None:
        record = {
            "type": event.type,
            "time_s": round(event.time_s, 9),
            "sequence": event.sequence,
        }
        record.update(_jsonify(event.payload))
        self._file().write(json.dumps(record) + "\n")
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


class WallClockTimer(Callback):
    """Accumulates per-phase wall-clock time across a run.

    Phases are the driver's round structure — ``train``, ``tournament``,
    ``exchange``, ``eval`` — read from ``round_end`` events (the driver
    times each phase with a monotonic clock; this callback only sums).
    """

    PHASES = ("train", "tournament", "exchange", "eval")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {phase: 0.0 for phase in self.PHASES}
        self.rounds = 0

    def on_round_end(self, event: TelemetryEvent) -> None:
        for phase in self.PHASES:
            self.totals[phase] += float(event.payload.get(f"{phase}_s", 0.0))
        self.rounds += 1

    @property
    def total_s(self) -> float:
        return sum(self.totals.values())

    def summary(self) -> str:
        parts = [f"{phase} {self.totals[phase]:.3f}s" for phase in self.PHASES]
        return (
            f"wall clock over {self.rounds} rounds: "
            + ", ".join(parts)
            + f" (total {self.total_s:.3f}s)"
        )


class CounterAggregator(Callback):
    """Folds event streams into run-level counters.

    Tracks exchange traffic, tournament adoption, datastore local/remote
    fetch counters (the per-batch deltas the store emits — the same fields
    as :class:`~repro.datastore.store.DataStoreStats`), checkpoint
    traffic, and step totals.  A store that is not wired to a hub can be
    folded in after the fact with :meth:`fold_datastore`.

    ``worker_train_s`` attributes trainer compute to execution-backend
    workers: per ``step_end`` event, ``elapsed_s`` is added under the key
    ``"{backend}/worker{worker}"``.  Events from traces written before
    backend attribution existed carry neither field and are skipped.

    ``fetch_stall`` events are folded the same way: per delivered batch,
    ``stall_s`` (the consumer's wait) accumulates into ``fetch_stall_s``
    and the hidden remainder ``max(0, materialize_s - stall_s)`` into
    ``fetch_overlap_s``, with per-worker breakdowns in ``worker_stall_s``
    / ``worker_overlap_s`` when the event carries backend attribution.

    ``latent_hits`` / ``latent_misses`` sum the ``step_end`` fields of the
    same names: training-batch rows whose real latents came from the
    trainer's per-sample table vs. rows that went through the frozen
    encoder (absent from older traces; counted as zero).
    """

    def __init__(self) -> None:
        self.exchange_bytes = 0
        self.exchanges = 0
        self.tournaments = 0
        self.adoptions = 0
        self.steps = 0
        self.rounds = 0
        self.worker_train_s: dict[str, float] = {}
        self.fetch_stalls = 0
        self.fetch_stall_s = 0.0
        self.fetch_overlap_s = 0.0
        self.worker_stall_s: dict[str, float] = {}
        self.worker_overlap_s: dict[str, float] = {}
        self.prefetch_fills = 0
        self._prefetch_fill_sum = 0
        self.latent_hits = 0
        self.latent_misses = 0
        self.datastore_local_fetches = 0
        self.datastore_remote_fetches = 0
        self.datastore_local_bytes = 0
        self.datastore_remote_bytes = 0
        self.checkpoint_saves = 0
        self.checkpoint_restores = 0
        self.checkpoint_bytes = 0

    # -- per-type folds ------------------------------------------------------

    def on_exchange(self, event: TelemetryEvent) -> None:
        self.exchanges += 1
        self.exchange_bytes += int(event.payload["nbytes"])

    def on_tournament(self, event: TelemetryEvent) -> None:
        self.tournaments += 1
        if event.payload["adopted"]:
            self.adoptions += 1

    def on_step_end(self, event: TelemetryEvent) -> None:
        self.steps += int(event.payload["steps"])
        self.latent_hits += int(event.payload.get("latent_hits", 0))
        self.latent_misses += int(event.payload.get("latent_misses", 0))
        backend = event.payload.get("backend")
        worker = event.payload.get("worker")
        if backend is not None and worker is not None:
            key = f"{backend}/worker{int(worker)}"
            self.worker_train_s[key] = (
                self.worker_train_s.get(key, 0.0)
                + float(event.payload.get("elapsed_s", 0.0))
            )

    def on_round_end(self, event: TelemetryEvent) -> None:
        self.rounds += 1

    def on_fetch_stall(self, event: TelemetryEvent) -> None:
        p = event.payload
        stall = float(p["stall_s"])
        overlap = max(0.0, float(p.get("materialize_s", stall)) - stall)
        self.fetch_stalls += 1
        self.fetch_stall_s += stall
        self.fetch_overlap_s += overlap
        backend = p.get("backend")
        worker = p.get("worker")
        if backend is not None and worker is not None:
            key = f"{backend}/worker{int(worker)}"
            self.worker_stall_s[key] = self.worker_stall_s.get(key, 0.0) + stall
            self.worker_overlap_s[key] = (
                self.worker_overlap_s.get(key, 0.0) + overlap
            )

    def on_prefetch_fill(self, event: TelemetryEvent) -> None:
        self.prefetch_fills += 1
        self._prefetch_fill_sum += int(event.payload.get("fill", 0))

    def on_datastore_fetch(self, event: TelemetryEvent) -> None:
        p = event.payload
        self.datastore_local_fetches += int(p["local_fetches"])
        self.datastore_remote_fetches += int(p["remote_fetches"])
        self.datastore_local_bytes += int(p["local_bytes"])
        self.datastore_remote_bytes += int(p["remote_bytes"])

    def on_checkpoint(self, event: TelemetryEvent) -> None:
        if event.payload["action"] == "save":
            self.checkpoint_saves += 1
        else:
            self.checkpoint_restores += 1
        self.checkpoint_bytes += int(event.payload["nbytes"])

    def fold_datastore(self, stats) -> None:
        """Add a :class:`~repro.datastore.store.DataStoreStats` snapshot
        (for stores that ran without a telemetry hub)."""
        self.datastore_local_fetches += stats.local_fetches
        self.datastore_remote_fetches += stats.remote_fetches
        self.datastore_local_bytes += stats.local_bytes
        self.datastore_remote_bytes += stats.remote_bytes

    # -- derived -------------------------------------------------------------

    def adoption_rate(self) -> float:
        """Fraction of tournament decisions that adopted the partner."""
        return self.adoptions / self.tournaments if self.tournaments else 0.0

    def remote_fetch_fraction(self) -> float:
        total = self.datastore_local_fetches + self.datastore_remote_fetches
        return self.datastore_remote_fetches / total if total else 0.0

    def latent_hit_ratio(self) -> float:
        """Share of training-batch rows served from the latent table."""
        total = self.latent_hits + self.latent_misses
        return self.latent_hits / total if total else 0.0

    def mean_prefetch_fill(self) -> float:
        """Mean prefetch-queue occupancy observed at fill time."""
        return (
            self._prefetch_fill_sum / self.prefetch_fills
            if self.prefetch_fills
            else 0.0
        )

    def summary(self) -> dict[str, float]:
        """All counters plus derived rates, as one flat dict.

        Per-worker train seconds appear flattened as
        ``train_s[<backend>/worker<N>]`` keys (absent when no ``step_end``
        event carried backend attribution); per-worker data-path stall and
        overlap appear as ``stall_s[...]`` / ``overlap_s[...]`` keys."""
        per_worker = {
            f"train_s[{key}]": seconds
            for key, seconds in sorted(self.worker_train_s.items())
        }
        per_worker.update(
            {
                f"stall_s[{key}]": seconds
                for key, seconds in sorted(self.worker_stall_s.items())
            }
        )
        per_worker.update(
            {
                f"overlap_s[{key}]": seconds
                for key, seconds in sorted(self.worker_overlap_s.items())
            }
        )
        return {
            "rounds": self.rounds,
            "steps": self.steps,
            "exchanges": self.exchanges,
            "exchange_bytes": self.exchange_bytes,
            "tournaments": self.tournaments,
            "adoptions": self.adoptions,
            "adoption_rate": self.adoption_rate(),
            "fetch_stalls": self.fetch_stalls,
            "fetch_stall_s": self.fetch_stall_s,
            "fetch_overlap_s": self.fetch_overlap_s,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_mean_fill": self.mean_prefetch_fill(),
            "latent_hits": self.latent_hits,
            "latent_misses": self.latent_misses,
            "latent_hit_ratio": self.latent_hit_ratio(),
            "datastore_local_fetches": self.datastore_local_fetches,
            "datastore_remote_fetches": self.datastore_remote_fetches,
            "datastore_local_bytes": self.datastore_local_bytes,
            "datastore_remote_bytes": self.datastore_remote_bytes,
            "remote_fetch_fraction": self.remote_fetch_fraction(),
            "checkpoint_saves": self.checkpoint_saves,
            "checkpoint_restores": self.checkpoint_restores,
            "checkpoint_bytes": self.checkpoint_bytes,
            **per_worker,
        }


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
            best = min(m[self.metric] for m in self._last_eval.values())
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
