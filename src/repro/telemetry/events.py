"""Typed telemetry events and the hub that routes them.

LBANN structures run-time observability as callbacks attached to the
training loop; every figure of the paper (7-13) is a trace of exactly the
quantities those callbacks record — per-round losses, tournament outcomes,
datastore fetch counters, wall-clock phase timings.  This module is the
transport layer of that design: instrumented components (drivers,
trainers, the data store, checkpointing) ``emit`` events into a
:class:`TelemetryHub`, and :class:`~repro.telemetry.callbacks.Callback`
subscribers consume them.

Events are *typed*: every event carries one of the names in
:data:`EVENT_TYPES` and a structured payload whose shape is fixed per
type (documented on the constants below).  Emitting an unknown type is an
error — consumers should be able to switch on ``event.type`` exhaustively.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "STEP_END",
    "ROUND_END",
    "PAIRING",
    "TOURNAMENT",
    "EXCHANGE",
    "EVAL",
    "DATASTORE_FETCH",
    "INGEST",
    "FETCH_STALL",
    "PREFETCH_FILL",
    "CHECKPOINT",
    "SPAN",
    "ALERT",
    "SERVE",
    "RESOURCE_SAMPLE",
    "EVENT_TYPES",
    "TelemetryEvent",
    "TelemetryHub",
]

#: One trainer finished a ``train_steps`` interval.  Payload: ``trainer``,
#: ``steps``, ``steps_done``, ``losses`` (mean loss terms), ``elapsed_s``,
#: plus ``backend`` (execution backend name) and ``worker`` (which worker
#: slot ran the interval; always 0 under the serial backend), plus
#: ``latent_hits`` / ``latent_misses`` (batch rows of the interval whose
#: real latents were gathered from the trainer's table / encoded).
STEP_END = "step_end"

#: A driver finished one (train, tournament, eval) round.  Payload:
#: ``round`` plus per-phase wall-clock seconds ``train_s``,
#: ``tournament_s``, ``exchange_s``, ``eval_s``, plus ``backend`` and
#: ``workers`` (the execution backend and its worker count).
ROUND_END = "round_end"

#: A population topology planned who exchanges with whom this round.
#: Payload: ``round``, ``topology`` (the topology name), ``pairs`` (list of
#: ``[trainer_a, trainer_b]`` name pairs), ``bye`` (names sitting the round
#: out — deterministic per topology), and ``neighborhoods`` (per-pair
#: locality labels, ``None`` entries for topologies without spatial
#: structure).  Synchronous topologies emit it before their tournaments;
#: barrier-free ones emit it at round end, once the pairing order is known.
PAIRING = "pairing"

#: One trainer judged one pairwise tournament.  Payload: ``round``,
#: ``trainer``, ``partner``, ``own_score``, ``partner_score``, ``adopted``,
#: plus ``topology`` (which topology held the tournament) and
#: ``neighborhood`` (the judging trainer's locality label, ``None`` for
#: non-spatial topologies).
TOURNAMENT = "tournament"

#: One model-exchange transfer between a pair of trainers.  Payload:
#: ``round``, ``trainer_a``, ``trainer_b``, ``scope``, ``nbytes``, plus
#: ``topology``/``neighborhood`` attribution like ``tournament`` events.
EXCHANGE = "exchange"

#: The population was evaluated.  Two producers share the type, told
#: apart by payload shape: the driver's global-validation pass carries
#: ``round``, ``metrics`` (per-trainer metric dicts), ``elapsed_s``; a
#: :class:`~repro.eval.QualityProbe` pass carries ``round``,
#: ``divergence`` (per-trainer divergence dicts — ``kl``/``js``/
#: ``hellinger``/``mean_delta``/``std_delta``), ``metric`` (the probe's
#: ranking metric) and ``elapsed_s``.
EVAL = "eval"

#: The data store assembled one mini-batch.  Payload: ``batch_size``,
#: ``local_fetches``, ``remote_fetches``, ``local_bytes``,
#: ``remote_bytes`` — per-batch deltas of
#: :class:`~repro.datastore.store.DataStoreStats`.
DATASTORE_FETCH = "datastore_fetch"

#: A :class:`~repro.ingest.StreamingSource` finished one between-rounds
#: ingestion poll.  Payload: ``round`` (``None`` for priming polls),
#: ``admitted`` (samples admitted into the universe this poll),
#: ``evicted`` (channel retention + stale evictions this poll, of which
#: ``stale`` aged out), ``store_evictions`` (store LRU evictions this
#: poll, summed across attached stores), ``depth`` (channel occupancy
#: after draining), ``cursor`` (monotonic channel drain cursor),
#: ``universe_version``/``universe_size`` (the sample universe after the
#: poll), ``producer_lag`` (samples published but not yet drained, drops
#: included), ``store_occupancy`` (max per-rank occupancy fraction
#: across attached stores, 0.0 with no stores), ``paused`` (whether the
#: channel's high-watermark pause cut this poll's pump short of its
#: ``tasks_per_poll`` budget — the producer was held back) and ``channel_occupancy`` (pre-drain channel depth
#: as a fraction of its capacity).
INGEST = "ingest"

#: A data pipeline delivered one batch to its consumer.  Payload:
#: ``depth`` (prefetch depth, 0 = synchronous), ``epoch``/``step`` (the
#: planned batch delivered), ``stall_s`` (how long the consumer waited for
#: the batch — the data path's contribution to step latency) and
#: ``materialize_s`` (how long building the batch actually took; at depth
#: >= 1 the difference is work hidden behind training compute).  When the
#: pipeline serves a trainer the event also carries ``trainer``,
#: ``backend`` and ``worker``.
FETCH_STALL = "fetch_stall"

#: A prefetching pipeline's background thread finished materializing one
#: batch ahead of the consumer.  Payload: ``depth``, ``fill`` (queue
#: occupancy after the insert), ``epoch``/``step``, ``materialize_s``,
#: plus ``trainer``/``backend``/``worker`` when serving a trainer.
PREFETCH_FILL = "prefetch_fill"

#: A trainer checkpoint was written or restored.  Payload: ``action``
#: (``"save"`` or ``"restore"``), ``trainer``, ``nbytes``.
CHECKPOINT = "checkpoint"

#: One closed profiling span from a :class:`~repro.telemetry.spans.Tracer`
#: (only present when tracing is enabled — see :meth:`TelemetryHub.
#: start_tracing`).  Payload: ``name``, ``cat`` (coarse category:
#: run/round/phase/train/step/data/exchange/eval/serve), ``track`` (the
#: timeline lane
#: the span renders on), ``t0_s`` (start, seconds since the hub epoch),
#: ``dur_s``, ``id``, optional ``parent`` (enclosing span id) and
#: ``attrs`` (site-specific annotations).
SPAN = "span"

#: A run-health rule fired.  The one warning event: every rule of
#: :class:`~repro.telemetry.live.LiveAggregator` emits it at fire time,
#: and the surrogate server emits its own admission warnings with it.
#: Payload (the :meth:`~repro.telemetry.live.Alert.to_payload` shape):
#: ``kind`` (``nan_loss``/``stall_regression``/``winrate_collapse``/
#: ``quality_collapse``/``ingest_backpressure``/``serve_slo_burn``, plus
#: the server's ``serve_overload``/``serve_queue_depth``/
#: ``serve_deadline_miss``/``quality_gate_refusal``), ``severity``
#: (``"warning"``/``"critical"``), ``source`` (subsystem: ``train``/
#: ``data``/``exchange``/``eval``/``ingest``/``serve``), ``round`` (may
#: be ``None`` outside a campaign), ``trainer`` (may be ``None``),
#: ``neighborhood`` (the topology neighborhood a ``winrate_collapse`` is
#: confined to, else ``None``), ``message``, and ``value``/``threshold``
#: (the observed reading and the limit it crossed, ``None`` when a rule
#: has no scalar form).
ALERT = "alert"

#: The surrogate server executed one micro-batch.  Payload: ``size``
#: (requests in the batch), ``queue_depth`` (after the batch drained),
#: ``forward_s`` (model forward time), ``wait_s`` (mean queue wait across
#: the batch's requests) and ``version`` (the model version that served
#: it).  Only emitted when the server is built over a telemetry hub.
SERVE = "serve"

#: A point-in-time resource reading of one process (see
#: :mod:`repro.telemetry.resources`).  Payload: ``source`` (``"driver"``
#: or ``"worker<k>"`` — which process was sampled), ``rss_bytes``
#: (current resident set, 0 where the platform hides it),
#: ``peak_rss_bytes`` (lifetime high-water mark), ``cpu_user_s`` /
#: ``cpu_system_s`` (cumulative CPU seconds), plus ``backend``/``worker``
#: when an execution backend produced the sample.  Worker-process samples
#: are relayed to the driver's hub like spans are.
RESOURCE_SAMPLE = "resource_sample"

EVENT_TYPES = frozenset(
    {
        STEP_END,
        ROUND_END,
        PAIRING,
        TOURNAMENT,
        EXCHANGE,
        EVAL,
        DATASTORE_FETCH,
        INGEST,
        FETCH_STALL,
        PREFETCH_FILL,
        CHECKPOINT,
        SPAN,
        ALERT,
        SERVE,
        RESOURCE_SAMPLE,
    }
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured observation from an instrumented component.

    ``time_s`` is seconds since the hub was created (monotonic clock), so
    traces order and difference cleanly; ``sequence`` is a per-hub counter
    that breaks timestamp ties.
    """

    type: str
    payload: Mapping[str, object] = field(default_factory=dict)
    time_s: float = 0.0
    sequence: int = 0


class TelemetryHub:
    """Routes events from instrumented components to subscribed callbacks.

    A hub with no subscribers is effectively free: :meth:`emit` returns
    before constructing the event, so permanently-attached instrumentation
    costs nothing when nobody is listening.
    """

    def __init__(self) -> None:
        self.callbacks: list = []
        self._sequence = 0
        self._t0 = time.perf_counter()
        # The wall-clock reading at the hub epoch (the instant time_s == 0).
        # Tracers inherit it so span timelines from other processes can be
        # aligned to this hub's axis (monotonic clocks are per-process).
        self.wall_origin = time.time()
        # Span production is opt-in: None until start_tracing() is called
        # (drivers call it when an attached callback wants_spans), so the
        # permanent instrumentation's `tracer is None` check is all an
        # untraced run ever pays.
        self.tracer = None
        # A prefetching pipeline emits from its background thread while the
        # consumer emits from the training thread; serialize dispatch so
        # callbacks never observe interleaved partial updates.  Reentrant:
        # a callback may itself emit.
        self._lock = threading.RLock()

    def subscribe(self, callback) -> None:
        """Attach a callback (idempotent)."""
        if callback not in self.callbacks:
            self.callbacks.append(callback)

    def unsubscribe(self, callback) -> None:
        """Detach a callback; unknown callbacks are ignored."""
        if callback in self.callbacks:
            self.callbacks.remove(callback)

    @property
    def active(self) -> bool:
        """True when at least one callback is subscribed."""
        return bool(self.callbacks)

    def start_tracing(self):
        """Enable span production into this hub (idempotent).

        Returns the hub's :class:`~repro.telemetry.spans.Tracer`, created
        on first call with the hub's own clock epoch so span ``t0_s``
        values share the axis of :attr:`TelemetryEvent.time_s`.
        """
        if self.tracer is None:
            from repro.telemetry.spans import Tracer

            self.tracer = Tracer(
                self, epoch=self._t0, wall_origin=self.wall_origin
            )
        return self.tracer

    def emit(self, event_type: str, /, **payload) -> TelemetryEvent | None:
        """Dispatch one event to every subscriber.

        Returns the event, or ``None`` when there were no subscribers
        (the cheap path).  Raises ``ValueError`` on unknown event types so
        typos fail at the emit site, not silently downstream.
        """
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; "
                f"expected one of {sorted(EVENT_TYPES)}"
            )
        if not self.callbacks:
            return None
        with self._lock:
            event = TelemetryEvent(
                type=event_type,
                payload=payload,
                time_s=time.perf_counter() - self._t0,
                sequence=self._sequence,
            )
            self._sequence += 1
            for callback in list(self.callbacks):
                callback.handle(event)
        return event
