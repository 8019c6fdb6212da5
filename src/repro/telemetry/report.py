"""Trace reading and the offline trace report.

The counterpart of :class:`~repro.telemetry.callbacks.JsonlTraceWriter`.
:class:`TraceReader` is the one JSONL trace parser: ``trace-report``,
``trace-export`` and ``python -m repro.telemetry watch`` all read through
it.  :func:`trace_summary` folds a trace once through the same
:class:`~repro.telemetry.metrics.MetricsCollector` (additive) and
:class:`~repro.telemetry.live.LiveAggregator` (state) a live run
attaches, and renders the run-level summary the paper's figures are built
from — per-phase wall-clock, tournament adoption rate, exchange traffic,
datastore fetch locality, data-pipeline stall vs. overlap, (for traces
recorded under a parallel execution backend) per-worker train-time and
stall attribution, the pairing census, probe quality and resources.

Exposed on the command line as::

    python -m repro.experiments trace-report <trace.jsonl>
"""

from __future__ import annotations

import json
from collections import Counter

from repro.telemetry.callbacks import JsonlTraceWriter
from repro.telemetry.events import ALERT, EVENT_TYPES, SPAN, TelemetryEvent
from repro.telemetry.live import LiveAggregator
from repro.telemetry.metrics import MetricsCollector, MetricsRegistry, collect_metrics
from repro.utils.units import format_bytes, format_time

__all__ = [
    "TraceReader",
    "read_trace",
    "load_trace",
    "load_trace_header",
    "run_bits",
    "trace_summary",
    "render_trace_report",
]

#: Trace schema versions this reader understands.
SUPPORTED_TRACE_VERSIONS = frozenset({JsonlTraceWriter.SCHEMA_VERSION})


class TraceReader:
    """Incremental, validating JSONL trace reader.

    Each :meth:`read` returns the events appended since the previous one,
    reading on from a byte offset.  The ``trace_header`` record is valid
    only as the first non-blank line, must carry a supported ``version``
    and lands in :attr:`header` (headerless version-1 traces read fine).
    Blank lines are skipped; malformed JSON, misplaced headers and unknown
    event types raise ``ValueError`` naming ``path:line``.
    """

    def __init__(self, path) -> None:
        self.path = path
        self.header: dict | None = None
        self._offset = 0
        self._lineno = 0
        self._events = 0

    def read(self, final: bool = False) -> list[TelemetryEvent]:
        """Parse the lines appended since the last read.  An unterminated
        last line (the writer may be mid-append) is left for the next
        read unless ``final`` says the trace is complete."""
        events: list[TelemetryEvent] = []
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            for raw in fh:
                if not (final or raw.endswith(b"\n")):
                    break
                self._offset += len(raw)
                self._lineno += 1
                if raw.strip():
                    event = self._parse(raw, f"{self.path}:{self._lineno}")
                    if event is not None:
                        events.append(event)
        return events

    def _parse(self, line: bytes, where: str) -> TelemetryEvent | None:
        """One non-blank line: the event, or ``None`` for the header."""
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{where}: not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{where}: not a JSON object")
        event_type = record.pop("type", None)
        if event_type == "trace_header":
            if self._events or self.header is not None:
                raise ValueError(
                    f"{where}: trace_header is only valid as the first record"
                )
            version = record.get("version")
            if version not in SUPPORTED_TRACE_VERSIONS:
                raise ValueError(
                    f"{where}: unsupported trace schema version {version!r} "
                    f"(supported: {sorted(SUPPORTED_TRACE_VERSIONS)})"
                )
            self.header = record
            return None
        if event_type not in EVENT_TYPES:
            raise ValueError(f"{where}: unknown event type {event_type!r}")
        self._events += 1
        return TelemetryEvent(
            type=event_type,
            time_s=float(record.pop("time_s", 0.0)),
            sequence=int(record.pop("sequence", self._events - 1)),
            payload=record,
        )


def read_trace(path) -> tuple[dict | None, list[TelemetryEvent]]:
    """Parse a whole trace once: its validated header (``None`` for
    headerless traces) and its events."""
    reader = TraceReader(path)
    events = reader.read(final=True)
    return reader.header, events


def load_trace(path) -> list[TelemetryEvent]:
    """Parse a JSONL trace file back into events (header validated and
    skipped; see :func:`load_trace_header` to read it)."""
    return read_trace(path)[1]


def load_trace_header(path) -> dict | None:
    """The validated ``trace_header`` record of a trace, or ``None`` for
    headerless (pre-version-2) traces."""
    return read_trace(path)[0]


def run_bits(run: dict) -> list[str]:
    """The trace header's ``run`` metadata as short phrases, shared by
    the report's ``header:`` line and the watch surface's ``run:`` line."""
    bits = []
    if run.get("driver"):
        bits.append(str(run["driver"]))
    if run.get("backend"):
        bits.append(
            f"backend {run['backend']}"
            + (f" x{run['workers']}" if run.get("workers") else "")
        )
    if run.get("population"):
        bits.append(f"{len(run['population'])} trainers")
    return bits


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _phases(registry: MetricsRegistry) -> dict:
    """Per-phase wall-clock totals plus ``total``/``rounds``."""
    phases = {
        phase: float(
            registry.counter(
                "repro_phase_seconds_total", labels={"phase": phase}
            ).value
        )
        for phase in MetricsCollector.PHASES
    }
    return {
        **phases,
        "total": sum(phases.values()),
        "rounds": registry["repro_rounds_total"].value,
    }


def _counters(registry: MetricsRegistry) -> dict:
    """Run-level counters and derived rates, as one flat dict.

    Per-worker seconds appear flattened as ``train_s[<backend>/worker<N>]``
    keys (absent when no ``step_end`` event carried backend attribution),
    then ``stall_s[...]`` and ``overlap_s[...]`` from ``fetch_stall``."""
    def count(name: str) -> int:
        return registry[name].value

    tournaments = count("repro_tournaments_total")
    adoptions = count("repro_adoptions_total")
    stall = registry["repro_fetch_stall_seconds"]
    fills = count("repro_prefetch_fills_total")
    slots = count("repro_prefetch_fill_slots_total")
    hits = count("repro_latent_hits_total")
    misses = count("repro_latent_misses_total")
    local = count("repro_datastore_local_fetches_total")
    remote = count("repro_datastore_remote_fetches_total")
    out = {
        "rounds": count("repro_rounds_total"),
        "steps": count("repro_steps_total"),
        "exchanges": registry["repro_exchange_bytes"].count,
        "exchange_bytes": count("repro_exchange_bytes_total"),
        "tournaments": tournaments,
        "adoptions": adoptions,
        "adoption_rate": _ratio(adoptions, tournaments),
        "fetch_stalls": stall.count,
        "fetch_stall_s": stall.sum,
        "fetch_overlap_s": float(
            registry["repro_fetch_overlap_seconds_total"].value
        ),
        "prefetch_fills": fills,
        "prefetch_mean_fill": _ratio(slots, fills),
        "latent_hits": hits,
        "latent_misses": misses,
        "latent_hit_ratio": _ratio(hits, hits + misses),
        "datastore_local_fetches": local,
        "datastore_remote_fetches": remote,
        "datastore_local_bytes": count("repro_datastore_local_bytes_total"),
        "datastore_remote_bytes": count("repro_datastore_remote_bytes_total"),
        "remote_fetch_fraction": _ratio(remote, local + remote),
        "checkpoint_saves": count("repro_checkpoint_saves_total"),
        "checkpoint_restores": count("repro_checkpoint_restores_total"),
        "checkpoint_bytes": count("repro_checkpoint_bytes_total"),
    }
    for prefix in ("train", "stall", "overlap"):
        rows = {}
        for metric in registry.series(f"repro_worker_{prefix}_seconds_total"):
            labels = dict(metric.labels)
            rows[f"{labels['backend']}/worker{labels['worker']}"] = metric.value
        out.update((f"{prefix}_s[{key}]", s) for key, s in sorted(rows.items()))
    return out


def _ingest(registry: MetricsRegistry) -> dict | None:
    """The streamed-universe watermarks; ``None`` without ingest polls.

    Keys: ``polls``, summed ``admitted``/``evicted``/``stale``/
    ``store_evictions``, the final ``universe_size``/``universe_version``,
    ``max_producer_lag``, ``paused_polls`` (polls that hit the channel's
    high watermark), and mean/peak ``channel_occupancy`` (``None`` for
    traces predating the occupancy payload)."""
    polls = registry["repro_ingest_polls_total"].value
    if not polls:
        return None
    occupancy = registry["repro_ingest_channel_occupancy"].to_json()
    return {
        "polls": polls,
        "admitted": registry["repro_ingest_admitted_total"].value,
        "evicted": registry["repro_ingest_evicted_total"].value,
        "stale": registry["repro_ingest_stale_total"].value,
        "store_evictions": registry["repro_store_evictions_total"].value,
        "universe_size": registry["repro_ingest_universe_size"].value,
        "universe_version": registry["repro_ingest_universe_version"].value,
        "max_producer_lag": registry["repro_ingest_producer_lag_max"].value,
        "paused_polls": registry["repro_ingest_paused_polls_total"].value,
        "mean_channel_occupancy": occupancy["mean"],
        "peak_channel_occupancy": occupancy["max"],
    }


#: The histograms ``trace-report`` tabulates: (label, metric, unit).
_PERCENTILE_ROWS = (
    ("step time", "repro_step_time_seconds", "s"),
    ("fetch latency", "repro_fetch_latency_seconds", "s"),
    ("fetch stall", "repro_fetch_stall_seconds", "s"),
    ("exchange size", "repro_exchange_bytes", "B"),
)


def trace_summary(path) -> dict:
    """Machine-readable trace summary: every section of the text report
    as one JSON-encodable dict (``trace-report --format json``).

    The trace is parsed once and folded twice: by
    :func:`~repro.telemetry.metrics.collect_metrics`, whose registry gives
    ``phases``, ``counters``, ``ingest`` and ``percentiles``, and by a
    :class:`~repro.telemetry.live.LiveAggregator`, whose snapshot gives
    ``pairings``, ``eval`` and ``resources`` — the state ``watch``
    renders.  Stable shape: ``header`` (the validated trace header or
    ``None``), ``events`` (per-type census), ``phases`` (wall-clock
    totals plus ``total``/``rounds``), ``counters`` (run counters and
    derived rates, per-worker keys included), ``percentiles`` (histogram
    summaries keyed by metric name, only metrics that saw data),
    ``pairings``/``ingest``/``eval`` (``None`` when the trace carries no
    such events), ``resources`` (per-source peak-RSS/CPU rows from
    ``resource_sample`` events), ``health`` (the ``alert`` event
    payloads) and ``spans`` (count + track census, ``None`` for untraced
    runs).
    """
    header, events = read_trace(path)
    registry = collect_metrics(events)
    live = LiveAggregator()
    for event in events:
        live.handle(event)
    state = live.snapshot()
    census = dict(Counter(event.type for event in events))
    percentiles = {
        name: registry[name].to_json()
        for _, name, _ in _PERCENTILE_ROWS
        if registry[name].count > 0
    }
    spans = None
    if census.get(SPAN):
        tracks = sorted(
            {str(e.payload.get("track", "main")) for e in events if e.type == SPAN}
        )
        spans = {"count": census[SPAN], "tracks": tracks}
    return {
        "trace": str(path),
        "header": header,
        "events": census,
        "phases": _phases(registry),
        "counters": _counters(registry),
        "percentiles": percentiles,
        "pairings": state["pairings"],
        "ingest": _ingest(registry),
        "eval": state["eval"],
        "resources": state["resources"],
        "health": [dict(e.payload) for e in events if e.type == ALERT],
        "spans": spans,
    }


def _per_worker(counters: dict, prefix: str) -> dict[str, float]:
    """The ``<prefix>[<backend>/worker<N>]`` keys of a flattened counter
    summary, as ``{worker key: seconds}``."""
    head = prefix + "["
    return {
        key[len(head):-1]: value
        for key, value in counters.items()
        if key.startswith(head)
    }


def render_trace_report(path) -> str:
    """Load a trace and render the plain-text summary: a rendering of
    :func:`trace_summary`, section for section, so the two formats
    cannot drift."""
    doc = trace_summary(path)
    header, census, phases = doc["header"], doc["events"], doc["phases"]
    out = [f"== telemetry trace report: {path} =="]
    if header is not None:
        bits = [f"schema v{header.get('version')}"]
        bits += run_bits(header.get("run") or {})
        out.append("header: " + ", ".join(bits))
    out.append(f"events: {sum(census.values())}")
    for event_type in sorted(census):
        out.append(f"  {event_type}: {census[event_type]}")
    out.append("per-phase wall clock:")
    for phase in MetricsCollector.PHASES:
        out.append(f"  {phase}: {phases[phase]:.3f}s")
    out.append(f"  total: {phases['total']:.3f}s over {phases['rounds']} rounds")
    summary = doc["counters"]
    out.append("counters:")
    out.append(f"  steps: {summary['steps']}")
    out.append(
        f"  tournaments: {summary['tournaments']} "
        f"(adoption rate {summary['adoption_rate']:.3f})"
    )
    out.append(
        f"  exchanges: {summary['exchanges']} "
        f"({summary['exchange_bytes']} bytes)"
    )
    if summary["datastore_local_fetches"] or summary["datastore_remote_fetches"]:
        out.append(
            f"  datastore fetches: {summary['datastore_local_fetches']} local / "
            f"{summary['datastore_remote_fetches']} remote "
            f"(remote fraction {summary['remote_fetch_fraction']:.3f})"
        )
    if summary["checkpoint_saves"] or summary["checkpoint_restores"]:
        out.append(
            f"  checkpoints: {summary['checkpoint_saves']} saved / "
            f"{summary['checkpoint_restores']} restored "
            f"({summary['checkpoint_bytes']} bytes)"
        )
    worker_train_s = _per_worker(summary, "train_s")
    if worker_train_s:
        out.append("per-worker train wall clock:")
        busiest = max(worker_train_s.values())
        for key in sorted(worker_train_s):
            seconds = worker_train_s[key]
            share = seconds / busiest if busiest else 0.0
            out.append(f"  {key}: {seconds:.3f}s ({share:.0%} of busiest)")
    if summary["fetch_stalls"]:
        out.append("data pipeline:")
        out.append(
            f"  fetch stalls: {summary['fetch_stalls']} "
            f"(stalled {summary['fetch_stall_s']:.3f}s, overlapped "
            f"{summary['fetch_overlap_s']:.3f}s of materialization)"
        )
        if summary["latent_hits"] or summary["latent_misses"]:
            out.append(
                f"  latent table: {summary['latent_hits']} rows gathered / "
                f"{summary['latent_misses']} encoded "
                f"(hit ratio {summary['latent_hit_ratio']:.3f})"
            )
        if summary["prefetch_fills"]:
            out.append(
                f"  prefetch fills: {summary['prefetch_fills']} "
                f"(mean queue fill {summary['prefetch_mean_fill']:.2f})"
            )
        worker_stall_s = _per_worker(summary, "stall_s")
        worker_overlap_s = _per_worker(summary, "overlap_s")
        workers = sorted(set(worker_stall_s) | set(worker_overlap_s))
        if workers:
            out.append("  per-worker stall vs. overlap:")
            for key in workers:
                out.append(
                    f"    {key}: stall "
                    f"{worker_stall_s.get(key, 0.0):.3f}s / overlap "
                    f"{worker_overlap_s.get(key, 0.0):.3f}s"
                )
    pairings = doc["pairings"]
    if pairings:
        topo_bits = ", ".join(
            f"{name} x{n}" for name, n in sorted(pairings["topologies"].items())
        )
        out.append("pairing:")
        out.append(
            f"  {pairings['rounds']} rounds ({topo_bits}): "
            f"{pairings['pairs']} pairings, "
            f"{pairings['unique_pairs']} unique, {pairings['byes']} byes"
        )
        if pairings["partners"]:
            degrees = list(pairings["partners"].values())
            out.append(
                f"  partner diversity: min {min(degrees)} / mean "
                f"{sum(degrees) / len(degrees):.1f} / max {max(degrees)} "
                f"distinct partners per trainer"
            )
    ingest = doc["ingest"]
    if ingest:
        out.append("ingest:")
        out.append(
            f"  {ingest['polls']} polls: admitted {ingest['admitted']}, "
            f"evicted {ingest['evicted']} ({ingest['stale']} stale), "
            f"universe {ingest['universe_size']} "
            f"(v{ingest['universe_version']})"
        )
        lag_line = f"  producer lag max {ingest['max_producer_lag']}"
        if ingest["mean_channel_occupancy"] is not None:
            lag_line += (
                f"; channel occupancy mean "
                f"{ingest['mean_channel_occupancy']:.0%} peak "
                f"{ingest['peak_channel_occupancy']:.0%}"
            )
        if ingest["paused_polls"]:
            lag_line += (
                f"; {ingest['paused_polls']} poll"
                f"{'s' if ingest['paused_polls'] != 1 else ''} hit the "
                f"high watermark"
            )
        out.append(lag_line)
    quality = doc["eval"]
    if quality:
        out.append("eval quality:")
        out.append(
            f"  {quality['probes']} probe pass"
            f"{'es' if quality['probes'] != 1 else ''} "
            f"(metric {quality['metric']}), last round "
            f"{quality['last_round']}"
        )
        for name in sorted(quality["trainers"]):
            row = quality["trainers"][name]
            out.append(
                f"  {name}: last {row['last']:.4g} / best {row['best']:.4g} "
                f"over {row['points']} point"
                f"{'s' if row['points'] != 1 else ''}"
            )
    if doc["percentiles"]:
        out.append("latency/size percentiles:")
    for label, name, unit in _PERCENTILE_ROWS:
        hist = doc["percentiles"].get(name)
        if hist is not None:
            out.append(
                f"  {label}: n={hist['count']} mean={hist['mean']:.4g}{unit} "
                f"p50={hist['p50']:.4g}{unit} p95={hist['p95']:.4g}{unit} "
                f"p99={hist['p99']:.4g}{unit}"
            )
    resources = doc["resources"]
    if resources:
        out.append("resources:")
        for source in sorted(resources):
            row = resources[source]
            cpu_s = row["cpu_user_s"] + row["cpu_system_s"]
            out.append(
                f"  {source}: peak rss {format_bytes(row['peak_rss_bytes'])}, "
                f"cpu {format_time(cpu_s)} "
                f"({row['samples']} sample{'s' if row['samples'] != 1 else ''})"
            )
    if doc["health"]:
        out.append("health warnings:")
        for p in doc["health"]:
            out.append(
                f"  [{p.get('severity', 'warning')}] {p.get('kind', '?')} "
                f"(round {p.get('round')}): {p.get('message', '')}"
            )
    spans = doc["spans"]
    if spans:
        out.append(
            f"spans: {spans['count']} over {len(spans['tracks'])} track(s) "
            f"(convert with: python -m repro.experiments trace-export {path})"
        )
    return "\n".join(out)
