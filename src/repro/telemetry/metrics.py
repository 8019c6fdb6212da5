"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry answers both "how much, in total" (counters, gauges) and
"how is it *distributed*" — the p50/p95/p99 of step time, fetch latency,
stall duration, and exchange bytes that the paper's scaling analysis
turns on.  Histograms use fixed buckets (Prometheus-style): observation
is O(log buckets) with bounded memory, percentiles are linearly
interpolated within the bucket that crosses the target rank and clamped
to the observed min/max, so tails are never reported outside the data.

:class:`MetricsCollector` is the run's one cumulative fold of the event
stream, the same code live and offline:

- live, as a :class:`~repro.telemetry.callbacks.Callback` attached to
  ``driver.run`` (export with :meth:`MetricsRegistry.to_json` or
  :meth:`MetricsRegistry.render_prometheus`);
- offline, as :func:`collect_metrics` over a loaded trace — the fold
  ``trace-report`` derives its phase, counter, ingest and percentile
  sections from.

The run's state — windows, alerts, probe quality, pairings, resources
— is the other fold, :class:`~repro.telemetry.live.LiveAggregator`.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Iterable, Sequence

from repro.telemetry.callbacks import Callback

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "collect_metrics",
    "TIME_BUCKETS",
    "BYTE_BUCKETS",
]

#: Default latency buckets (seconds): geometric 1-2.5-5 ladder from 10 µs
#: to 60 s — wide enough for both in-memory materialization (tens of µs)
#: and real multi-second train intervals.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default size buckets (bytes): powers of four from 1 KiB to 1 GiB.
BYTE_BUCKETS: tuple[float, ...] = tuple(
    float(4**i * 1024) for i in range(10)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r} (must match {_NAME_RE.pattern})"
        )
    return name


def _check_labels(labels) -> tuple[tuple[str, str], ...]:
    """Canonicalize a label mapping: sorted, string-valued, validated names.

    Sorting is the determinism guarantee — two metrics created with the
    same labels in different insertion orders are the same time series,
    and export rows never depend on dict ordering.
    """
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(
                f"invalid label name {key!r} (must match {_LABEL_RE.pattern})"
            )
        items.append((key, str(labels[key])))
    return tuple(items)


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: tuple[tuple[str, str], ...], extra=()) -> str:
    """Render ``{k="v",...}`` (empty string for an unlabeled metric).

    ``extra`` pairs append after the sorted labels — used for the ``le``
    bound on histogram bucket rows, which conventionally renders last.
    """
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt_num(value: float) -> str:
    """Prometheus sample value formatting (ints stay integral)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.10g}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_json(self):
        return self.value


class Gauge:
    """A value that goes up and down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def to_json(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``buckets`` are strictly increasing upper bounds; an implicit +Inf
    bucket catches overflow.  :meth:`quantile` finds the bucket whose
    cumulative count crosses ``q * count`` and interpolates linearly
    within its bounds, clamped to the observed min/max — exact at the
    extremes, bucket-resolution in between.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = TIME_BUCKETS,
                 labels=None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram {name}: buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (``q`` in [0, 1]); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = (
                    self.buckets[i] if i < len(self.buckets) else self._max
                )
                within = (target - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, within))
                return min(max(estimate, self._min), self._max)
        return self._max

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_json(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self._min,
            "max": None if self.count == 0 else self._max,
            "mean": None if self.count == 0 else self.mean,
            "buckets": [
                {"le": le, "count": c}
                for le, c in zip(
                    [*self.buckets, math.inf], _cumulative(self.counts)
                )
            ],
            **{
                k: (None if math.isnan(v) else v)
                for k, v in self.percentiles().items()
            },
        }


def _cumulative(counts: Iterable[int]) -> list[int]:
    out, total = [], 0
    for c in counts:
        total += c
        out.append(total)
    return out


class MetricsRegistry:
    """Get-or-create registry of named metrics, exportable as JSON and
    Prometheus text exposition format.

    Metrics may carry labels; ``(name, sorted labels)`` identifies a time
    series, and all series under one name form a *family* that must share
    one kind.  Export is deterministic: families render in name order,
    series within a family in label order, so two exports of equal state
    are byte-identical regardless of registration order.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}

    def _get_or_create(self, cls, name: str, help: str, labels=None, **kwargs):
        key = (name, _check_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            family_kind = self._kinds.get(name)
            if family_kind is not None and family_kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family_kind}, "
                    f"not {cls.kind}"
                )
            metric = self._metrics[key] = cls(
                name, help, labels=labels, **kwargs
            )
            self._kinds[name] = cls.kind
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels=labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels=labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = TIME_BUCKETS,
                  labels=None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels=labels, buckets=buckets
        )

    def __iter__(self):
        return iter(self._metrics.values())

    def __getitem__(self, name: str):
        return self._metrics[(name, ())]

    def __contains__(self, name: str) -> bool:
        return (name, ()) in self._metrics

    def series(self, name: str) -> list:
        """Every registered series of one family, in label order."""
        members = [m for m in self if m.name == name]
        members.sort(key=lambda m: _label_str(m.labels))
        return members

    def to_json(self) -> dict:
        """``{kind: {name: value-or-summary}}``, JSON-encodable.

        Labeled series key as ``name{k="v",...}`` so one family's series
        stay distinguishable; unlabeled metrics keep their bare name.
        """
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in sorted(
            self, key=lambda m: (m.name, _label_str(m.labels))
        ):
            key = metric.name + _label_str(metric.labels)
            out[metric.kind + "s"][key] = metric.to_json()
        return out

    def render_prometheus(self) -> str:
        """The text exposition format.

        One HELP/TYPE block per *family*, every series of the family
        under it; families sorted by name, series by rendered labels,
        label values escaped — deterministic byte-for-byte.
        """
        families: dict[str, list] = {}
        for metric in self:
            families.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name in sorted(families):
            members = sorted(
                families[name], key=lambda m: _label_str(m.labels)
            )
            help = next((m.help for m in members if m.help), "")
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {members[0].kind}")
            for metric in members:
                labels = _label_str(metric.labels)
                if isinstance(metric, Histogram):
                    cumulative = _cumulative(metric.counts)
                    for le, c in zip([*metric.buckets, math.inf], cumulative):
                        bucket = _label_str(
                            metric.labels, extra=(("le", _fmt_num(le)),)
                        )
                        lines.append(f"{name}_bucket{bucket} {c}")
                    lines.append(f"{name}_sum{labels} {_fmt_num(metric.sum)}")
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    lines.append(f"{name}{labels} {_fmt_num(metric.value)}")
        return "\n".join(lines) + "\n"


class MetricsCollector(Callback):
    """A callback folding the event stream into a :class:`MetricsRegistry`
    — the run's one cumulative fold, live and offline
    (:func:`collect_metrics`).

    Registers its metrics up front, so exports have stable shape even
    before events arrive; per-worker seconds (``backend=``, ``worker=``)
    appear with the first event carrying backend attribution, which
    traces older than it lack.  One collector can observe several runs —
    the experiments CLI shares one across every figure it trains for a
    campaign-level snapshot.
    """

    #: The driver's round phases, read from ``round_end`` events (the
    #: driver times each with a monotonic clock; this fold only sums).
    PHASES = ("train", "tournament", "exchange", "eval")

    #: Counters that count an event type (``field`` None) or sum one
    #: integer payload field of it: ``(event type, field, name, help)``.
    COUNTED = (
        ("round_end", None, "repro_rounds_total", "rounds completed"),
        ("tournament", None, "repro_tournaments_total",
         "pairwise tournament judgements"),
        ("exchange", "nbytes", "repro_exchange_bytes_total",
         "total model-exchange traffic"),
        ("step_end", "latent_hits", "repro_latent_hits_total",
         "training-batch rows gathered from the per-sample latent table"),
        ("step_end", "latent_misses", "repro_latent_misses_total",
         "training-batch rows encoded by the frozen encoder"),
        ("datastore_fetch", "local_fetches",
         "repro_datastore_local_fetches_total",
         "store fetches served from the local shard"),
        ("datastore_fetch", "remote_fetches",
         "repro_datastore_remote_fetches_total",
         "store fetches served from a remote shard"),
        ("datastore_fetch", "local_bytes", "repro_datastore_local_bytes_total",
         "bytes of store fetches served from the local shard"),
        ("datastore_fetch", "remote_bytes",
         "repro_datastore_remote_bytes_total",
         "bytes of store fetches served from a remote shard"),
        ("checkpoint", "nbytes", "repro_checkpoint_bytes_total",
         "checkpoint traffic, saves plus restores"),
        ("prefetch_fill", None, "repro_prefetch_fills_total",
         "background prefetch fills"),
        ("prefetch_fill", "fill", "repro_prefetch_fill_slots_total",
         "prefetch queue occupancy summed over background fills"),
        ("alert", None, "repro_health_warnings_total",
         "run-health alerts fired"),
        # Streaming ingestion (see repro.ingest): the event payload
        # carries per-poll deltas, so no cross-poll bookkeeping is needed.
        ("ingest", None, "repro_ingest_polls_total", "ingest polls"),
        ("ingest", "admitted", "repro_ingest_admitted_total",
         "streamed samples admitted into the sample universe"),
        ("ingest", "evicted", "repro_ingest_evicted_total",
         "streamed samples evicted from the ingest channel "
         "(retention displacement + stale aging)"),
        ("ingest", "stale", "repro_ingest_stale_total",
         "streamed samples dropped as stale"),
        ("ingest", "store_evictions", "repro_store_evictions_total",
         "LRU evictions across distributed-store ranks"),
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._counted: dict[str, list] = {}
        for event_type, field, name, help in self.COUNTED:
            self._counted.setdefault(event_type, []).append(
                (field, r.counter(name, help))
            )
        self.step_time = r.histogram(
            "repro_step_time_seconds",
            "per-step train time (interval elapsed / steps)",
        )
        self.fetch_latency = r.histogram(
            "repro_fetch_latency_seconds",
            "per-batch materialization latency",
        )
        self.stall = r.histogram(
            "repro_fetch_stall_seconds",
            "consumer wait per delivered batch",
        )
        self.exchange_size = r.histogram(
            "repro_exchange_bytes",
            "bytes moved per pairwise model exchange",
            buckets=BYTE_BUCKETS,
        )
        self.steps = r.counter("repro_steps_total", "optimizer steps taken")
        self.phase_seconds = {
            phase: r.counter(
                "repro_phase_seconds_total",
                "driver wall clock per round phase",
                labels={"phase": phase},
            )
            for phase in self.PHASES
        }
        self.adoptions = r.counter(
            "repro_adoptions_total", "tournaments that adopted the partner"
        )
        self.fetch_overlap = r.counter(
            "repro_fetch_overlap_seconds_total",
            "materialization hidden behind compute, max(0, materialize - stall)",
        )
        self.checkpoint_saves = r.counter(
            "repro_checkpoint_saves_total", "trainer checkpoints written"
        )
        self.checkpoint_restores = r.counter(
            "repro_checkpoint_restores_total", "trainer checkpoints restored"
        )
        self.prefetch_fill = r.gauge(
            "repro_prefetch_queue_fill",
            "prefetch queue occupancy at the last background fill",
        )
        self.ingest_paused = r.counter(
            "repro_ingest_paused_polls_total",
            "polls that hit the ingest channel's high watermark",
        )
        self.ingest_depth = r.gauge(
            "repro_ingest_channel_depth",
            "ingest channel occupancy after the last poll",
        )
        self.channel_occupancy = r.histogram(
            "repro_ingest_channel_occupancy",
            "peak ingest channel occupancy fraction per poll",
            buckets=tuple(i / 10 for i in range(1, 11)),
        )
        self.ingest_lag = r.gauge(
            "repro_ingest_producer_lag",
            "published-but-undrained samples after the last poll",
        )
        self.ingest_lag_max = r.gauge(
            "repro_ingest_producer_lag_max",
            "largest published-but-undrained backlog over all polls",
        )
        self.universe_size = r.gauge(
            "repro_ingest_universe_size",
            "sample-universe size after the last poll",
        )
        self.universe_version = r.gauge(
            "repro_ingest_universe_version",
            "sample-universe version after the last poll",
        )
        self.store_occupancy = r.gauge(
            "repro_store_occupancy",
            "distributed-store cache occupancy fraction at the last poll",
        )
        # Resource gauges (fed by resource_sample events; see
        # repro.telemetry.resources).  Peak RSS keeps max semantics across
        # samples — a gauge because it can span several processes' peaks.
        self.rss = r.gauge(
            "repro_rss_bytes", "resident set size at the last sample"
        )
        self.peak_rss = r.gauge(
            "repro_peak_rss_bytes",
            "peak resident set size over all sampled processes",
        )
        self.cpu_seconds = r.gauge(
            "repro_cpu_seconds",
            "cumulative user+system CPU seconds at the last sample",
        )

    def _per_worker(self, kind: str, payload) -> Counter | None:
        """The ``repro_worker_<kind>_seconds_total`` series of the
        payload's backend worker; ``None`` for an unattributed event."""
        backend, worker = payload.get("backend"), payload.get("worker")
        if backend is None or worker is None:
            return None
        return self.registry.counter(
            f"repro_worker_{kind}_seconds_total",
            f"{kind} seconds per execution-backend worker",
            labels={"backend": backend, "worker": int(worker)},
        )

    # -- per-type folds ------------------------------------------------------

    def on_event(self, event) -> None:
        for field, counter in self._counted.get(event.type, ()):
            counter.inc(1 if field is None else int(event.payload.get(field, 0)))

    def on_step_end(self, event) -> None:
        p = event.payload
        steps = int(p.get("steps", 1)) or 1
        self.steps.inc(steps)
        elapsed = p.get("elapsed_s")
        if elapsed is not None:
            # One observation per interval: the mean per-step time.  Per-step
            # clocks would perturb the thing being measured.
            self.step_time.observe(float(elapsed) / steps)
        train = self._per_worker("train", p)
        if train is not None:
            train.inc(float(p.get("elapsed_s", 0.0)))

    def on_round_end(self, event) -> None:
        for phase, seconds in self.phase_seconds.items():
            seconds.inc(float(event.payload.get(f"{phase}_s", 0.0)))

    def on_tournament(self, event) -> None:
        if event.payload.get("adopted"):
            self.adoptions.inc()

    def on_exchange(self, event) -> None:
        self.exchange_size.observe(int(event.payload.get("nbytes", 0)))

    def on_fetch_stall(self, event) -> None:
        p = event.payload
        stall = float(p.get("stall_s", 0.0))
        overlap = max(0.0, float(p.get("materialize_s", stall)) - stall)
        self.stall.observe(stall)
        self.fetch_overlap.inc(overlap)
        materialize = p.get("materialize_s")
        if materialize is not None:
            self.fetch_latency.observe(float(materialize))
        worker_stall = self._per_worker("stall", p)
        if worker_stall is not None:
            worker_stall.inc(stall)
            self._per_worker("overlap", p).inc(overlap)

    def on_prefetch_fill(self, event) -> None:
        self.prefetch_fill.set(int(event.payload.get("fill", 0)))

    def on_checkpoint(self, event) -> None:
        if event.payload.get("action") == "save":
            self.checkpoint_saves.inc()
        else:
            self.checkpoint_restores.inc()

    def on_ingest(self, event) -> None:
        p = event.payload
        if p.get("paused"):
            self.ingest_paused.inc()
        self.ingest_depth.set(int(p.get("depth", 0)))
        lag = int(p.get("producer_lag", 0))
        self.ingest_lag.set(lag)
        self.ingest_lag_max.set(max(self.ingest_lag_max.value, lag))
        self.universe_size.set(int(p.get("universe_size", 0)))
        self.universe_version.set(int(p.get("universe_version", 0)))
        self.store_occupancy.set(float(p.get("store_occupancy", 0.0)))
        occupancy = p.get("channel_occupancy")
        if occupancy is not None:
            self.channel_occupancy.observe(float(occupancy))

    def on_resource_sample(self, event) -> None:
        p = event.payload
        self.rss.set(float(p.get("rss_bytes", 0)))
        self.peak_rss.set(
            max(self.peak_rss.value, float(p.get("peak_rss_bytes", 0)))
        )
        self.cpu_seconds.set(
            float(p.get("cpu_user_s", 0.0)) + float(p.get("cpu_system_s", 0.0))
        )


def collect_metrics(events: Iterable) -> MetricsRegistry:
    """Fold loaded trace events into a fresh registry (offline path)."""
    collector = MetricsCollector()
    for event in events:
        collector.handle(event)
    return collector.registry


def render_metrics(registry: MetricsRegistry, fmt: str = "prometheus") -> str:
    """One registry snapshot as text: ``"prometheus"`` exposition format
    or ``"json"``.  The single rendering path shared by
    :func:`write_metrics` and the serve status endpoint's ``/metrics``
    scrape."""
    import json

    if fmt == "prometheus":
        return registry.render_prometheus()
    if fmt == "json":
        return json.dumps(registry.to_json(), indent=2) + "\n"
    raise ValueError(f"unknown metrics format {fmt!r}")


def write_metrics(registry: MetricsRegistry, path) -> None:
    """Write a registry snapshot to ``path``, atomically.

    The format follows the suffix: ``.prom``/``.txt`` get the Prometheus
    text exposition format, anything else JSON.  Publication is
    tmp + ``os.replace`` (the :class:`~repro.core.checkpoint.
    CheckpointStore` pattern), so a scraper polling the path never reads
    a half-written snapshot — it sees the previous complete file or the
    new complete file, nothing in between.
    """
    import os
    from pathlib import Path

    path = Path(path)
    fmt = "prometheus" if path.suffix in (".prom", ".txt") else "json"
    text = render_metrics(registry, fmt)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


__all__.append("render_metrics")
__all__.append("write_metrics")
