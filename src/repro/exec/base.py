"""The :class:`ExecutionBackend` contract and shared relay plumbing.

A backend's lifecycle mirrors one driver run: the driver calls
:meth:`~ExecutionBackend.bind` with its trainers and telemetry hub before
the first round, :meth:`~ExecutionBackend.train_round` once per round,
:meth:`~ExecutionBackend.mark_dirty` whenever it mutates a trainer's
model/optimizer state outside the backend (tournament adoption), and
:meth:`~ExecutionBackend.release` after the last round.

Every backend implements the train phase once, as
:meth:`~ExecutionBackend._train_intervals`: a generator yielding
``(trainer_name, losses, recorder)`` in *completion* order, the recorder
holding that trainer's not-yet-replayed telemetry.  ``train_round`` is
the one round built on it, barrier or barrier-free:

- **round-boundary determinism** — after ``train_round`` returns, the
  driver-side trainer objects hold exactly the state a serial run would
  have produced (trainers are independent within a round and all RNG is
  scoped per trainer, so this is achievable for any placement);
- **telemetry ordering** — without ``on_ready`` (the barrier round) the
  recorders replay once the whole population is done, in population
  order, exactly as the serial loop emits them.  With ``on_ready`` (the
  barrier-free round) each trainer's recorder replays as it completes
  and ``on_ready(name)`` follows, so the driver may run tournaments
  against finished trainers while the rest of the round still trains.
  State determinism still holds — only finished trainers are touched.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.telemetry.events import EVENT_TYPES
from repro.telemetry.resources import emit_resource_sample

if TYPE_CHECKING:
    from repro.core.trainer import Trainer
    from repro.telemetry import TelemetryHub

__all__ = [
    "ExecutionBackend",
    "EventRecorder",
    "resolve_backend",
    "BACKEND_NAMES",
]


class EventRecorder:
    """A hub stand-in that buffers ``(type, payload)`` pairs.

    Parallel backends attach one per trainer during the train phase so
    instrumented components can emit off the driver thread/process; the
    backend's round then replays the buffer into the real hub (see the
    module docstring for the order).  Payloads must stay
    picklable (they cross process boundaries under the process backend).

    Recorders mirror the hub's :attr:`~repro.telemetry.events.
    TelemetryHub.tracer` attribute: instrumented components look up
    ``getattr(sink, "tracer", None)``, so a backend that wants spans from
    worker-side code points a tracer at the recorder (thread backend: a
    ``child()`` of the hub tracer sharing its clock; process backend: the
    worker's own tracer, realigned at relay time).
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []
        self.tracer = None

    def emit(self, event_type: str, /, **payload) -> None:
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; "
                f"expected one of {sorted(EVENT_TYPES)}"
            )
        self.events.append((event_type, payload))

    def replay_into(self, hub: "TelemetryHub") -> None:
        for event_type, payload in self.events:
            hub.emit(event_type, **payload)
        self.events.clear()


class ExecutionBackend(ABC):
    """Where/how per-trainer population work executes.

    Subclasses define :attr:`name` (the CLI/telemetry identifier), the
    train phase (:meth:`_train_intervals`) and optional lifecycle hooks.
    A backend instance is reusable: ``bind`` after ``release`` starts a
    fresh session (the process backend re-spawns its pool).

    ``max_workers`` caps the pool of the parallel backends; by default
    they use one slot per CPU, never more than one per bound trainer.
    """

    name: str = "abstract"

    def __init__(
        self,
        max_workers: int | None = None,
        prefetch_depth: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if prefetch_depth is not None and prefetch_depth < 0:
            raise ValueError(
                f"prefetch_depth must be >= 0, got {prefetch_depth}"
            )
        self._max_workers = max_workers
        # Data-pipeline depth imposed on every bound trainer for the
        # duration of a run (None = leave each trainer's own depth).  Any
        # depth is bit-identical: batch plans are independent of
        # materialization (see repro.datastore.pipeline).
        self.prefetch_depth = prefetch_depth
        self._trainers: list["Trainer"] = []
        self._telemetry: "TelemetryHub | None" = None
        self._bound = False
        self._saved_depths: list[int] = []

    # -- lifecycle -----------------------------------------------------------

    def bind(
        self, trainers: Sequence["Trainer"], telemetry: "TelemetryHub"
    ) -> None:
        """Attach to a driver's population for the duration of one run.

        A failing ``_on_bind`` releases whatever it had set up (workers
        started, depths imposed) before the error propagates, so the
        backend can be bound again.
        """
        if self._bound:
            raise RuntimeError(f"{self.name} backend is already bound")
        self._trainers = list(trainers)
        self._telemetry = telemetry
        self._bound = True
        if self.prefetch_depth is not None:
            self._saved_depths = [t.prefetch_depth for t in self._trainers]
            for t in self._trainers:
                t.set_prefetch_depth(self.prefetch_depth)
        try:
            self._on_bind()
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        """Detach from the population; idempotent."""
        if not self._bound:
            return
        try:
            self._on_release()
        finally:
            if self._saved_depths:
                # Restoring the pre-bind depth also folds any live
                # prefetch pipeline back into its plan cursor (stopping
                # its thread) whenever the depth actually changed.
                for t, depth in zip(self._trainers, self._saved_depths):
                    t.set_prefetch_depth(depth)
            self._saved_depths = []
            self._trainers = []
            self._telemetry = None
            self._bound = False

    def _on_bind(self) -> None:
        """Subclass hook: start workers, tag trainers, ship replicas."""

    def _on_release(self) -> None:
        """Subclass hook: stop workers, restore trainer attributes."""

    # -- per-round work -------------------------------------------------------

    def train_round(
        self,
        round_index: int,
        n_steps: int,
        on_ready: Callable[[str], None] | None = None,
    ) -> dict[str, dict[str, float]]:
        """Train every trainer ``n_steps``; return per-trainer mean losses.

        On return the driver-side trainer objects hold the post-train
        state (weights, optimizers, counters), whatever process executed
        the steps.  The result dict is keyed by trainer name in
        population order.

        Without ``on_ready`` this is the barrier round: trainer telemetry
        replays into the hub after the whole population has finished, in
        population order.  With it, each trainer's telemetry replays as
        its interval completes and ``on_ready(trainer_name)`` is then
        called on the driver thread; the callback may mutate that finished
        trainer (tournament adoption) and call :meth:`mark_dirty`.  Either
        way the round ends with the backend's resource samples.
        """
        assert self._telemetry is not None
        losses: dict[str, dict[str, float]] = {}
        held: dict[str, EventRecorder] = {}
        for name, trainer_losses, recorder in self._train_intervals(n_steps):
            losses[name] = trainer_losses
            if on_ready is None:
                held[name] = recorder
            else:
                recorder.replay_into(self._telemetry)
                on_ready(name)
        for t in self._trainers:
            if t.name in held:
                held[t.name].replay_into(self._telemetry)
        self._emit_resource_samples()
        return {t.name: losses[t.name] for t in self._trainers}

    @abstractmethod
    def _train_intervals(
        self, n_steps: int
    ) -> Iterator[tuple[str, dict[str, float], EventRecorder]]:
        """Train every trainer ``n_steps``, yielding ``(trainer_name,
        losses, recorder)`` as each interval completes.

        By the time a trainer is yielded its driver-side object holds the
        post-train state and its telemetry sink is restored; ``recorder``
        holds the events it produced that have not reached the hub yet.
        """

    def _swap_in_recorders(self) -> dict[str, tuple[EventRecorder, object]]:
        """Point every trainer at a private recorder with a child of the
        hub's tracer; returns ``{name: (recorder, sink to restore)}``."""
        hub_tracer = self._telemetry.tracer
        swapped = {}
        for t in self._trainers:
            rec = EventRecorder()
            if hub_tracer is not None:
                rec.tracer = hub_tracer.child(rec)
            swapped[t.name] = (rec, t.telemetry)
            t.telemetry = rec
        return swapped

    def _emit_resource_samples(self) -> None:
        """One resource sample per train phase.  All trainer work of the
        in-process backends runs in the driver process, so one sample of
        it is the complete picture."""
        emit_resource_sample(
            self._telemetry, source="driver", backend=self.name, worker=0
        )

    def mark_dirty(self, trainer_name: str) -> None:
        """The driver mutated this trainer's model/optimizer state.

        Called after tournament adoption; backends holding remote
        replicas must re-sync that trainer before its next train step.
        In-process backends need not do anything — the driver's trainer
        objects *are* the executing state.
        """

    def ingest_admit(self, samples: Sequence, version: int) -> None:
        """The driver's sample universe grew: streamed ``samples`` were
        admitted and the universe is now at ``version``.

        Called by a :class:`~repro.ingest.StreamingSource` poll, after the
        driver-side readers have admitted the batch and suspended their
        pipelines.  Backends holding remote replicas must mirror the
        growth there (admit into each replica reader's universe/store and
        suspend replica pipelines) so worker-side epoch plans freeze the
        same snapshots the driver's would.  In-process backends need not
        do anything — the driver's trainer objects (and hence readers and
        universe) *are* the executing state.
        """

    @property
    def num_workers(self) -> int:
        """How many concurrent execution slots this backend uses."""
        n = self._max_workers or (os.cpu_count() or 1)
        return min(n, len(self._trainers)) if self._trainers else n

    # -- convenience -----------------------------------------------------------

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "bound" if self._bound else "idle"
        return f"{type(self).__name__}({state}, workers={self.num_workers})"

    @staticmethod
    def worker_of(trainer_index: int, num_workers: int) -> int:
        """The deterministic trainer -> worker-slot assignment every
        backend uses (round-robin), so traces are placement-stable."""
        return trainer_index % max(1, num_workers)


#: Names accepted by :func:`resolve_backend` and the ``--backend`` CLI flag.
BACKEND_NAMES = ("serial", "thread", "process")


def resolve_backend(
    spec: "ExecutionBackend | str | None",
    max_workers: int | None = None,
    prefetch_depth: int | None = None,
) -> "ExecutionBackend":
    """Coerce a backend spec into an :class:`ExecutionBackend`.

    ``None`` means the serial default; a string names one of
    :data:`BACKEND_NAMES`; an instance passes through unchanged (in which
    case ``max_workers``/``prefetch_depth`` must not also be given — the
    instance already chose its pool size and pipeline depth).
    """
    if isinstance(spec, ExecutionBackend):
        if max_workers is not None:
            raise ValueError(
                "max_workers cannot override an already-constructed backend"
            )
        if prefetch_depth is not None:
            raise ValueError(
                "prefetch_depth cannot override an already-constructed backend"
            )
        return spec
    if spec is None:
        spec = "serial"
    if isinstance(spec, str):
        try:
            cls = _registry()[spec]
        except KeyError:
            raise ValueError(
                f"unknown execution backend {spec!r}; "
                f"expected one of {BACKEND_NAMES}"
            ) from None
        return cls(max_workers=max_workers, prefetch_depth=prefetch_depth)
    raise TypeError(
        f"backend must be None, a name, or an ExecutionBackend, got {spec!r}"
    )


def _registry() -> dict:
    # Deferred import: serial/thread/process import this module.
    from repro.exec.process import ProcessBackend
    from repro.exec.serial import SerialBackend
    from repro.exec.thread import ThreadBackend

    return {
        "serial": SerialBackend,
        "thread": ThreadBackend,
        "process": ProcessBackend,
    }
