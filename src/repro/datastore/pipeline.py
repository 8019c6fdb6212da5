"""Batch pipelines: cursors over the plan/materialize seam.

The paper's data store hides ingestion cost by overlapping mini-batch
assembly (file reads, inter-rank exchange, stacking) with training compute
(Section III-B).  The reader refactor makes that overlap safe to
implement: all randomness lives in :meth:`~repro.datastore.reader.Reader.
plan_epoch`, so :meth:`~repro.datastore.reader.Reader.materialize` can run
arbitrarily far ahead — on another thread — without changing which batches
the trainer sees.

Two pipelines over the same interface:

- :class:`BatchPipeline` — the synchronous cursor (prefetch depth 0): each
  :meth:`~BatchPipeline.next_batch` plans lazily and materializes inline.
  The consumer's stall per batch *is* the materialize time.
- :class:`PrefetchingReader` — a bounded-depth pipeline that materializes
  up to ``depth`` batches ahead on a background thread.  Batches are
  produced in exactly the order the synchronous cursor would produce them
  (one producer, in-order queue), so store caching, eviction order, file
  statistics and delivered batches are all bit-identical to depth 0.

Both pipelines are checkpointable: :meth:`~BatchPipeline.state` captures a
plan cursor — the RNG state the in-flight epoch was planned from plus the
next undelivered step — and :meth:`~BatchPipeline.restore` replays it by
re-planning the identical epoch.  Prefetched-but-undelivered batches are
deliberately *not* part of the state: they are a pure materialization of
the plan and are rebuilt on resume.

Pipelines emit ``fetch_stall`` (per delivered batch: how long the consumer
waited vs. how long materialization took) and ``prefetch_fill`` (per
background materialization: queue occupancy) telemetry when a hub is
attached via :attr:`~BatchPipeline.telemetry`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Mapping

from repro.datastore.reader import EpochPlan, MiniBatch, Reader
from repro.telemetry.events import FETCH_STALL, PREFETCH_FILL

__all__ = ["BatchPipeline", "PrefetchingReader", "build_pipeline"]


class BatchPipeline:
    """Synchronous plan/materialize cursor over a reader (depth 0).

    Tracks the *delivered* position: ``_cursor_plan`` is the epoch plan
    containing the next undelivered batch and ``_cursor_step`` its step
    index (``== len(plan)`` when the epoch is fully delivered and the next
    call rolls over).  A fresh pipeline has drawn nothing: the first plan
    comes from the first batch or :meth:`state` call, or from
    :meth:`restore` — so a suspend/resume costs exactly one plan.
    ``reader.epochs_completed`` advances exactly when
    an epoch's final batch is delivered — delivery semantics, shared with
    :meth:`Reader.epoch`.

    Attach a :class:`~repro.telemetry.TelemetryHub` (or any object with an
    ``emit(type, **payload)`` method) via :attr:`telemetry`; payload
    context (trainer/backend/worker) merges from :attr:`context`.
    """

    depth = 0

    def __init__(
        self, reader: Reader, batch_size: int, drop_last: bool = True
    ) -> None:
        self.reader = reader
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)
        self.telemetry = None
        self.context: Mapping[str, object] = {}
        self._consumed_any = False
        self._cursor_plan: EpochPlan | None = None
        self._cursor_step = 0

    # -- consumption ---------------------------------------------------------

    def next_batch(self) -> MiniBatch:
        """Deliver the next planned batch (rolling epochs as needed)."""
        t0 = time.perf_counter()
        plan, bp, mb, materialize_s = self._obtain()
        stall_s = time.perf_counter() - t0
        self._consumed_any = True
        self._cursor_plan = plan
        self._cursor_step = bp.step_index + 1
        if bp.is_last:
            self.reader.epochs_completed += 1
        self._emit(
            FETCH_STALL,
            depth=self.depth,
            epoch=bp.epoch_index,
            step=bp.step_index,
            stall_s=stall_s,
            materialize_s=materialize_s,
        )
        return mb

    def _plan(self) -> EpochPlan:
        """The cursor's epoch plan, drawn on first use."""
        if self._cursor_plan is None:
            self._cursor_plan = self.reader.plan_epoch(
                self.batch_size, self.drop_last
            )
        return self._cursor_plan

    def _obtain(self):
        """Produce the next (plan, batch plan, batch, materialize_s)."""
        plan, step = self._plan(), self._cursor_step
        if step >= len(plan):
            plan = self.reader.plan_epoch(self.batch_size, self.drop_last)
            step = 0
        bp = plan[step]
        tracer = getattr(self.telemetry, "tracer", None)
        t0 = time.perf_counter()
        if tracer is not None:
            # Inline materialization: nests under whatever span the
            # consuming thread has open (the trainer's train_step), and
            # store fetches nest under it in turn.
            with tracer.span(
                "materialize", cat="data",
                epoch=bp.epoch_index, step=bp.step_index,
            ):
                mb = self.reader.materialize(bp)
        else:
            mb = self.reader.materialize(bp)
        return plan, bp, mb, time.perf_counter() - t0

    # -- checkpointing -------------------------------------------------------

    def state(self) -> dict:
        """JSON-serializable plan cursor for checkpointing.

        Captures which epoch the next undelivered batch belongs to, the
        RNG state that epoch was planned from, and the step to resume at.
        Safe to call while a prefetch thread is running: it reads only
        consumer-side cursor fields and immutable plan snapshots.
        """
        plan = self._plan()
        return {
            "batch_size": self.batch_size,
            "drop_last": self.drop_last,
            "prefetch_depth": self.depth,
            "epoch_index": plan.epoch_index,
            "epoch_rng_state": plan.rng_state,
            "next_step": self._cursor_step,
            "universe_version": plan.universe_version,
        }

    def restore(self, state: Mapping) -> None:
        """Reposition a *fresh* pipeline at a checkpointed plan cursor.

        Rewinds the reader RNG to the in-flight epoch's pre-plan state and
        re-plans it — regenerating the identical permutation and leaving
        the RNG exactly where the checkpointed run had it — then skips the
        already-delivered batches.
        """
        if self._consumed_any:
            raise RuntimeError(
                "restore() is only valid on a fresh pipeline that has not "
                "delivered any batches"
            )
        if int(state["batch_size"]) != self.batch_size or bool(
            state["drop_last"]
        ) != self.drop_last:
            raise ValueError(
                "pipeline state was captured under a different batch shape: "
                f"state has batch_size={state['batch_size']} "
                f"drop_last={state['drop_last']}, pipeline has "
                f"batch_size={self.batch_size} drop_last={self.drop_last}"
            )
        self.reader._rng.bit_generator.state = state["epoch_rng_state"]
        self.reader._epochs_planned = int(state["epoch_index"])
        universe_version = state.get("universe_version")
        if universe_version is not None:
            # Growing-universe readers must re-freeze the exact snapshot
            # the in-flight epoch was originally planned against, even if
            # the universe has grown since the checkpoint was taken.
            begin_replay = getattr(self.reader, "begin_replay", None)
            if begin_replay is None:
                raise ValueError(
                    "pipeline state pins a universe snapshot but the reader "
                    f"({type(self.reader).__name__}) cannot replay one"
                )
            begin_replay(int(universe_version))
        self._cursor_plan = self.reader.plan_epoch(self.batch_size, self.drop_last)
        self._cursor_step = int(state["next_step"])
        if not 0 <= self._cursor_step <= len(self._cursor_plan):
            raise ValueError(
                f"plan cursor step {self._cursor_step} is outside the "
                f"{len(self._cursor_plan)}-step epoch"
            )

    def close(self) -> None:
        """Release pipeline resources (no-op for the synchronous cursor)."""

    # -- telemetry -----------------------------------------------------------

    def _emit(self, event_type: str, **payload) -> None:
        hub = self.telemetry
        if hub is not None:
            hub.emit(event_type, **{**self.context, **payload})


class PrefetchingReader(BatchPipeline):
    """Bounded-depth prefetch pipeline: materialize up to ``depth`` batches
    ahead on a background thread.

    The producer thread walks the same plan sequence the synchronous
    cursor would (planning further epochs as it goes — it is the only
    thread touching the reader RNG once started) and pushes materialized
    batches through a bounded queue; the consumer pops them in order.
    Because materialization is RNG-free and produced in plan order, the
    delivered batch sequence — and every store/file side effect, in order
    — is bit-identical to the synchronous path.

    The thread starts lazily on the first :meth:`next_batch` (so a
    restored-but-unused pipeline does no work) and is joined by
    :meth:`close`.  Producer exceptions re-raise in the consumer.
    """

    _POLL_S = 0.05  # bounded waits so close()/errors stay responsive

    def __init__(
        self,
        reader: Reader,
        batch_size: int,
        depth: int = 2,
        drop_last: bool = True,
    ) -> None:
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        super().__init__(reader, batch_size, drop_last)
        self.depth = int(depth)
        self._queue: queue.Queue = queue.Queue(maxsize=self.depth)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._error: BaseException | None = None

    # -- producer ------------------------------------------------------------

    def _start_if_needed(self) -> None:
        if self._thread is None:
            self._plan()  # drawn here: the consumer reads it in state()
            self._thread = threading.Thread(
                target=self._produce,
                name=f"repro-prefetch-{id(self):x}",
                daemon=True,
            )
            self._thread.start()

    def _fill_track(self) -> str:
        """The producer's timeline lane: the consumer's lane plus a
        ``/prefetch`` suffix, so fills render right under the trainer
        steps they overlap."""
        ctx = self.context
        if "trainer" in ctx:
            return (
                f"{ctx.get('backend', '?')}:w{ctx.get('worker', 0)}"
                f"/{ctx['trainer']}/prefetch"
            )
        return "prefetch"

    def _produce(self) -> None:
        # Start from the consumer cursor (fresh pipeline or restored one);
        # from here on this thread owns the reader RNG and plan sequence.
        plan, step = self._cursor_plan, self._cursor_step
        try:
            while not self._stop.is_set():
                if step >= len(plan):
                    plan = self.reader.plan_epoch(self.batch_size, self.drop_last)
                    step = 0
                bp = plan[step]
                tracer = getattr(self.telemetry, "tracer", None)
                t0 = time.perf_counter()
                if tracer is not None:
                    # Producer-thread span: top-level on its own lane —
                    # in a Chrome trace these visibly overlap the
                    # consumer's train_step spans on the sibling track.
                    with tracer.span(
                        "prefetch_fill", cat="data",
                        track=self._fill_track(),
                        epoch=bp.epoch_index, step=bp.step_index,
                    ):
                        mb = self.reader.materialize(bp)
                else:
                    mb = self.reader.materialize(bp)
                materialize_s = time.perf_counter() - t0
                item = (plan, bp, mb, materialize_s)
                while not self._stop.is_set():
                    try:
                        self._queue.put(item, timeout=self._POLL_S)
                        break
                    except queue.Full:
                        continue
                else:
                    return
                self._emit(
                    PREFETCH_FILL,
                    depth=self.depth,
                    fill=self._queue.qsize(),
                    epoch=bp.epoch_index,
                    step=bp.step_index,
                    materialize_s=materialize_s,
                )
                step += 1
        except BaseException as exc:  # propagate to the consumer
            self._error = exc

    # -- consumer ------------------------------------------------------------

    def _obtain(self):
        self._start_if_needed()
        while True:
            try:
                return self._queue.get(timeout=self._POLL_S)
            except queue.Empty:
                if self._error is not None:
                    raise RuntimeError(
                        "prefetch pipeline failed while materializing ahead"
                    ) from self._error
                if self._thread is not None and not self._thread.is_alive():
                    raise RuntimeError("prefetch thread exited unexpectedly")

    # -- lifecycle -----------------------------------------------------------

    @property
    def queued_batches(self) -> int:
        """Approximate number of prefetched, undelivered batches."""
        return self._queue.qsize()

    def restore(self, state: Mapping) -> None:
        if self._thread is not None:
            raise RuntimeError("restore() must happen before the first batch")
        super().restore(state)

    def close(self) -> None:
        """Stop the producer thread and drop prefetched batches.

        Dropped batches are pure materializations of the plan; the cursor
        (and hence :meth:`state`) is unaffected.
        """
        self._stop.set()
        if self._thread is not None:
            while self._thread.is_alive():
                try:  # unblock a producer waiting on a full queue
                    self._queue.get_nowait()
                except queue.Empty:
                    pass
                self._thread.join(timeout=self._POLL_S)
            self._thread = None


def build_pipeline(
    reader: Reader,
    batch_size: int,
    prefetch_depth: int = 0,
    drop_last: bool = True,
) -> BatchPipeline:
    """Build the pipeline matching ``prefetch_depth`` (0 = synchronous)."""
    if prefetch_depth < 0:
        raise ValueError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
    if prefetch_depth == 0:
        return BatchPipeline(reader, batch_size, drop_last)
    return PrefetchingReader(reader, batch_size, prefetch_depth, drop_last)
