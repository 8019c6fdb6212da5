"""The surrogate server: admission, micro-batching, cache, observability.

:class:`SurrogateServer` is the deployment composition root.  A request
travels: admission (cache lookup, backpressure) → micro-batch queue →
fixed-shape ensemble forward → response fan-out + cache fill.  Every
phase is instrumented through the existing telemetry stacks:

- ``repro_serve_*`` metrics in a :class:`~repro.telemetry.metrics.
  MetricsRegistry` — request/response/deadline-miss counters, queue-depth
  and model-version gauges, a labeled ``repro_serve_model_info`` family,
  and latency histograms (end-to-end, queue-wait, forward) whose
  ``percentiles()`` give the server-side p50/p95/p99;
- spans (``serve.queue_wait`` / ``serve.batch_assembly`` /
  ``serve.forward`` / ``serve.cache``) through the hub tracer, so served
  traffic lands on the same timeline as training when both share a hub;
- ``alert`` events (``source="serve"``, the one run-health event — see
  :mod:`repro.telemetry.live`) for queue saturation, deadline misses
  and quality-gate refusals.

Version consistency: executors capture the registry's current model once
per batch, the response cache is cleared on every reload, and a cache
hit is served only when its version is the registry's current one (a
batch in flight across the reload fills the cache after the clear) — no
response mixes versions, and no cached response is behind the model
being served.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.serve.batcher import Batch, MicroBatcher, PendingRequest
from repro.serve.cache import ResponseCache
from repro.serve.errors import (
    DeadlineExceededError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.registry import GateDecision, ModelRegistry, ServingModel
from repro.telemetry.events import ALERT, SERVE, TelemetryHub
from repro.telemetry.live import Alert
from repro.telemetry.metrics import MetricsRegistry, TIME_BUCKETS

__all__ = ["ServeConfig", "ServeResponse", "SurrogateServer"]

#: Batch-size buckets: powers of two up to a generous ceiling.
BATCH_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(9))


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs (see module docstrings for the semantics)."""

    max_batch: int = 32
    max_delay_s: float = 0.002
    max_queue: int = 256
    default_deadline_s: float | None = None
    cache_size: int = 1024
    cache_quantum: float = 1e-6
    aggregate_mode: str = "winner"
    reload_poll_s: float | None = None
    queue_warn_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.queue_warn_fraction <= 1.0:
            raise ValueError("queue_warn_fraction must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """One answered query, stamped with the model version that produced it."""

    scalars: np.ndarray
    images: np.ndarray
    version: int
    tag: str
    cached: bool = False


class SurrogateServer:
    """In-process surrogate service over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        telemetry: TelemetryHub | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ServeConfig()
        self.telemetry = telemetry
        self._tracer = (
            telemetry.start_tracing() if telemetry is not None else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics()
        self.cache = ResponseCache(
            capacity=self.config.cache_size,
            quantum=self.config.cache_quantum,
        )
        self.batcher = MicroBatcher(
            execute=self._execute,
            expire=self._expire,
            max_batch=self.config.max_batch,
            max_delay_s=self.config.max_delay_s,
            max_queue=self.config.max_queue,
        )
        self._poll_stop = threading.Event()
        self._poll_thread: threading.Thread | None = None
        self._status_server = None
        self._warned: set[str] = set()
        self._info_labels: tuple | None = None
        self._gate_checks = 0
        self._gate_refusals = 0
        registry.on_reload(self._on_reload)
        registry.on_quality_gate(self._on_quality_gate)
        if registry.loaded:
            self._stamp_model(registry.current())

    # -- metrics -------------------------------------------------------------

    def _register_metrics(self) -> None:
        r = self.metrics
        self.m_requests = r.counter(
            "repro_serve_requests_total", "requests admitted or rejected"
        )
        self.m_responses = r.counter(
            "repro_serve_responses_total", "requests answered successfully"
        )
        self.m_rejected = r.counter(
            "repro_serve_rejected_total",
            "requests rejected by queue backpressure",
        )
        self.m_deadline_misses = r.counter(
            "repro_serve_deadline_misses_total",
            "requests shed for an expired deadline",
        )
        self.m_batches = r.counter(
            "repro_serve_batches_total", "micro-batches executed"
        )
        self.m_reloads = r.counter(
            "repro_serve_reloads_total", "model hot-reloads performed"
        )
        self.m_cache_hits = r.counter(
            "repro_serve_cache_hits_total", "responses served from cache"
        )
        self.m_cache_misses = r.counter(
            "repro_serve_cache_misses_total", "requests that missed the cache"
        )
        self.m_queue_depth = r.gauge(
            "repro_serve_queue_depth", "requests waiting for batch assembly"
        )
        self.m_model_version = r.gauge(
            "repro_serve_model_version", "monotone version of the served model"
        )
        self.m_latency = r.histogram(
            "repro_serve_latency_seconds",
            "end-to-end request latency (admission to response)",
        )
        self.m_queue_wait = r.histogram(
            "repro_serve_queue_wait_seconds",
            "time from admission to batch assembly",
        )
        self.m_forward = r.histogram(
            "repro_serve_forward_seconds", "model forward time per batch"
        )
        self.m_batch_size = r.histogram(
            "repro_serve_batch_size",
            "assembled micro-batch sizes",
            buckets=BATCH_BUCKETS,
        )
        # The quality-gate family: one counter per verdict, so a scrape
        # can alert on refused > 0 while still rating gate activity.
        self.m_gate_passed = r.counter(
            "repro_serve_quality_gate",
            "refresh candidates checked by the serve-side quality gate",
            labels={"decision": "passed"},
        )
        self.m_gate_refused = r.counter(
            "repro_serve_quality_gate",
            "refresh candidates checked by the serve-side quality gate",
            labels={"decision": "refused"},
        )

    def _stamp_model(self, model: ServingModel) -> None:
        self.m_model_version.set(model.version)
        labels = {
            "tag": model.tag,
            "winner": model.winner,
            "topology": model.topology or "none",
        }
        info = self.metrics.gauge(
            "repro_serve_model_info",
            "1 on the series labeling the deployed model",
            labels=labels,
        )
        if self._info_labels is not None and self._info_labels != info.labels:
            self.metrics.gauge(
                "repro_serve_model_info", labels=dict(self._info_labels)
            ).set(0)
        info.set(1)
        self._info_labels = info.labels

    def _on_reload(self, model: ServingModel) -> None:
        # Drop the previous model's responses.  A batch in flight on that
        # model can still fill the cache after this; `submit` rejects
        # those entries by version on hit.
        self.cache.clear()
        self.m_reloads.inc()
        self._stamp_model(model)

    def _on_quality_gate(self, decision: GateDecision) -> None:
        self._gate_checks += 1
        if decision.allowed:
            self.m_gate_passed.inc()
            return
        self._gate_refusals += 1
        self.m_gate_refused.inc()
        # Per-tag dedup: a *new* refused candidate should warn again even
        # though the kind repeats.
        self._warned.discard("quality_gate_refusal")
        self._warn("quality_gate_refusal", decision.render())

    # -- health --------------------------------------------------------------

    def _warn(self, kind: str, message: str, severity: str = "warning") -> None:
        if kind in self._warned:
            return
        self._warned.add(kind)
        if self.telemetry is not None:
            alert = Alert(
                kind=kind, severity=severity, message=message, source="serve"
            )
            self.telemetry.emit(ALERT, **alert.to_payload())

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SurrogateServer":
        if not self.registry.loaded and self.registry.refresh() is None:
            raise ServeError(
                "nothing to serve: the checkpoint store has no model tags"
            )
        self.batcher.start()
        if self.config.reload_poll_s is not None and self._poll_thread is None:
            self._poll_thread = threading.Thread(
                target=self._poll_loop, name="serve-reload-poll", daemon=True
            )
            self._poll_thread.start()
        return self

    def start_status(
        self, host: str = "127.0.0.1", port: int = 0, aggregator=None
    ):
        """Expose the live status surface over HTTP (idempotent).

        Starts a :class:`~repro.serve.status.StatusServer` serving
        ``/status`` (JSON: :meth:`stats` plus the ``aggregator``
        snapshot when one is given), ``/metrics`` (Prometheus scrape of
        the server's registry) and ``/healthz``.  Stops with the server.
        """
        if self._status_server is None:
            from repro.serve.status import StatusServer

            self._status_server = StatusServer(
                self, host=host, port=port, aggregator=aggregator
            ).start()
        return self._status_server

    def stop(self) -> None:
        """Stop admitting, drain queued requests, stop background threads."""
        self._poll_stop.set()
        if self._poll_thread is not None:
            self._poll_thread.join()
            self._poll_thread = None
        if self._status_server is not None:
            self._status_server.stop()
            self._status_server = None
        self.batcher.close()

    def __enter__(self) -> "SurrogateServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _poll_loop(self) -> None:
        while not self._poll_stop.wait(self.config.reload_poll_s):
            try:
                self.registry.refresh()
            except ServeError:
                # A half-written or incompatible tag must not kill the
                # poller; the previous version keeps serving.
                pass

    # -- request path --------------------------------------------------------

    def submit(
        self,
        params: np.ndarray,
        deadline_s: float | None = None,
    ) -> Future:
        """Admit one query (a single parameter row); returns a future.

        The future resolves to a :class:`ServeResponse`, or raises one of
        the :mod:`repro.serve.errors` types.  ``deadline_s`` (default:
        the config's) bounds how long the request may wait in the queue.
        """
        if self.batcher.closed:
            raise ServerClosedError("server is shut down")
        row = np.asarray(params, dtype=np.float32).ravel()
        self.m_requests.inc()
        now = time.perf_counter()
        key = self.cache.key(row)
        cached = self.cache.get(key)
        if (
            cached is not None
            and cached.version != self.registry.current().version
        ):
            # A micro-batch already executing on the previous model when a
            # reload cleared the cache fills it afterwards; such entries
            # are misses, and the recomputed response overwrites them.
            cached = None
        if self._tracer is not None:
            self._tracer.record(
                "serve.cache", cat="serve", track="serve",
                t0=now, end=time.perf_counter(), hit=cached is not None,
            )
        future: Future = Future()
        if cached is not None:
            self.m_cache_hits.inc()
            self.m_responses.inc()
            self.m_latency.observe(time.perf_counter() - now)
            future.set_result(
                dataclasses.replace(cached, cached=True)
            )
            return future
        self.m_cache_misses.inc()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        request = PendingRequest(
            params=row,
            future=future,
            enqueued=now,
            deadline=None if deadline_s is None else now + deadline_s,
        )
        try:
            self.batcher.submit(request)
        except ServerOverloadedError:
            self.m_rejected.inc()
            self._warn(
                "serve_overload",
                f"request queue saturated at {self.config.max_queue}; "
                f"rejecting requests",
                severity="critical",
            )
            raise
        depth = self.batcher.depth()
        self.m_queue_depth.set(depth)
        if depth >= self.config.queue_warn_fraction * self.config.max_queue:
            self._warn(
                "serve_queue_depth",
                f"queue depth {depth} exceeds "
                f"{self.config.queue_warn_fraction:.0%} of capacity "
                f"{self.config.max_queue}",
            )
        return future

    def predict(
        self,
        params: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = 30.0,
    ) -> ServeResponse:
        """Blocking single-query convenience over :meth:`submit`."""
        return self.submit(params, deadline_s=deadline_s).result(
            timeout=timeout
        )

    # -- batcher callbacks (batcher thread) ----------------------------------

    def _expire(self, request: PendingRequest) -> None:
        self.m_deadline_misses.inc()
        self._warn(
            "serve_deadline_miss",
            "requests are expiring in the queue before execution",
        )
        request.future.set_exception(
            DeadlineExceededError(
                "request deadline passed while queued"
            )
        )

    def _execute(self, batch: Batch) -> None:
        requests = batch.requests
        try:
            # One registry read per batch: the whole batch runs on this
            # version even if a hot-reload lands mid-forward.
            model = self.registry.current()
            if self._tracer is not None:
                self._tracer.record(
                    "serve.batch_assembly", cat="serve", track="serve",
                    t0=batch.t_open, end=batch.t_ready, size=len(requests),
                )
                for r in requests:
                    self._tracer.record(
                        "serve.queue_wait", cat="serve", track="serve",
                        t0=r.enqueued, end=batch.t_ready,
                    )
            for r in requests:
                self.m_queue_wait.observe(batch.t_ready - r.enqueued)
            params = np.stack([r.params for r in requests])
            t0 = time.perf_counter()
            if self._tracer is not None:
                with self._tracer.span(
                    "serve.forward", cat="serve", track="serve",
                    size=len(requests), version=model.version,
                ):
                    scalars, images = model.runtime.predict(params)
            else:
                scalars, images = model.runtime.predict(params)
            forward_s = time.perf_counter() - t0
            self.m_forward.observe(forward_s)
            self.m_batches.inc()
            self.m_batch_size.observe(len(requests))
        except Exception as exc:
            for r in requests:
                if not r.future.done():
                    r.future.set_exception(exc)
            return
        end = time.perf_counter()
        for i, r in enumerate(requests):
            response = ServeResponse(
                scalars=scalars[i],
                images=images[i],
                version=model.version,
                tag=model.tag,
            )
            self.cache.put(self.cache.key(r.params), response)
            r.future.set_result(response)
            self.m_responses.inc()
            self.m_latency.observe(end - r.enqueued)
        depth = self.batcher.depth()
        self.m_queue_depth.set(depth)
        if self.telemetry is not None and self.telemetry.active:
            # One serve event per micro-batch: the live plane's window
            # feed (queue depth, wait, forward) without per-request cost.
            self.telemetry.emit(
                SERVE,
                size=len(requests),
                queue_depth=depth,
                forward_s=forward_s,
                wait_s=sum(batch.t_ready - r.enqueued for r in requests)
                / len(requests),
                version=model.version,
            )

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-encodable operational snapshot."""
        model = self.registry.current() if self.registry.loaded else None
        return {
            "model": None
            if model is None
            else {
                "version": model.version,
                "tag": model.tag,
                "winner": model.winner,
                "topology": model.topology,
                "members": len(model.runtime.members),
                "aggregate_mode": model.runtime.aggregate_mode,
            },
            "queue_depth": self.batcher.depth(),
            "requests": self.m_requests.value,
            "responses": self.m_responses.value,
            "rejected": self.m_rejected.value,
            "deadline_misses": self.m_deadline_misses.value,
            "batches": self.m_batches.value,
            "reloads": self.m_reloads.value,
            "cache": self.cache.stats(),
            "latency": self.m_latency.percentiles(),
            "quality_gate": self._gate_stats(),
        }

    def _gate_stats(self) -> dict:
        last = self.registry.last_gate
        return {
            "checks": self._gate_checks,
            "refusals": self._gate_refusals,
            "last": None
            if last is None
            else {
                "tag": last.tag,
                "allowed": last.allowed,
                "reason": last.reason,
                "metric": last.metric,
                "candidate": last.candidate,
                "incumbent": last.incumbent,
            },
        }
