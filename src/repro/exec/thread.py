"""ThreadBackend: overlap train intervals on a thread pool.

NumPy/BLAS kernels release the GIL for the matrix products that dominate
a train step, so threads genuinely overlap trainer work without any
state shipping.  The one object every trainer shares is the frozen
autoencoder, and the threads share it as the serial backend does: a
forward pass hands its backward context to the caller as a tape instead
of leaving it on the layers, and the frozen model only ever runs with
``training=False`` and ``backward(..., through=True)``, which draw no
random numbers, update no running statistics and write no
``Weight.grad``.  Concurrent trainers therefore only read it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, as_completed

from repro.exec.base import EventRecorder, ExecutionBackend
from repro.telemetry.resources import emit_resource_sample

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Train trainers concurrently on a :class:`ThreadPoolExecutor`.

    During each train phase every trainer's telemetry sink is swapped for
    a private :class:`~repro.exec.base.EventRecorder`; after the barrier
    the recorders replay into the driver's hub in population order, so a
    threaded trace is indistinguishable from a serial one apart from the
    ``backend``/``worker`` attributes and wall-clock values.
    """

    name = "thread"

    def __init__(
        self,
        max_workers: int | None = None,
        prefetch_depth: int | None = None,
    ) -> None:
        super().__init__(prefetch_depth=prefetch_depth)
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    @property
    def num_workers(self) -> int:
        if not self._trainers:
            return self._max_workers or (os.cpu_count() or 1)
        return min(
            self._max_workers or (os.cpu_count() or 1), len(self._trainers)
        )

    def _on_bind(self) -> None:
        n = self.num_workers
        self._pool = ThreadPoolExecutor(
            max_workers=n, thread_name_prefix="repro-exec"
        )
        for i, t in enumerate(self._trainers):
            t.backend_name = self.name
            t.worker_index = self.worker_of(i, n)

    def _on_release(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def train_round(
        self, round_index: int, n_steps: int
    ) -> dict[str, dict[str, float]]:
        assert self._pool is not None and self._telemetry is not None
        hub_tracer = self._telemetry.tracer
        recorders = []
        saved_hubs = []
        for t in self._trainers:
            rec = EventRecorder()
            if hub_tracer is not None:
                # Same process, same monotonic clock: a child tracer
                # sharing the hub's epoch needs no realignment at replay.
                rec.tracer = hub_tracer.child(rec)
            recorders.append(rec)
            saved_hubs.append(t.telemetry)
            t.telemetry = rec
        try:
            futures = [
                self._pool.submit(t.train_steps, n_steps)
                for t in self._trainers
            ]
            losses = [f.result() for f in futures]
        finally:
            for t, hub in zip(self._trainers, saved_hubs):
                t.telemetry = hub
        for rec in recorders:
            rec.replay_into(self._telemetry)
        # Threads share the driver's address space, so one driver-process
        # sample per train phase covers every worker.
        emit_resource_sample(
            self._telemetry, source="driver", backend=self.name, worker=0
        )
        return {t.name: loss for t, loss in zip(self._trainers, losses)}

    def train_round_async(
        self, round_index: int, n_steps: int, on_ready
    ) -> dict[str, dict[str, float]]:
        """Barrier-free: report trainers in true completion order.

        Each trainer's recorder replays (and its hub is restored) the
        moment its future resolves, *before* ``on_ready`` — so a
        tournament run from the callback touches only finished trainers
        and its telemetry lands after theirs.  Other trainers keep
        training on the pool throughout.
        """
        assert self._pool is not None and self._telemetry is not None
        hub_tracer = self._telemetry.tracer
        swapped: dict = {}
        for t in self._trainers:
            rec = EventRecorder()
            if hub_tracer is not None:
                rec.tracer = hub_tracer.child(rec)
            swapped[t.name] = (t, rec, t.telemetry)
            t.telemetry = rec
        losses: dict[str, dict[str, float]] = {}
        try:
            futures = {
                self._pool.submit(t.train_steps, n_steps): t.name
                for t, _, _ in swapped.values()
            }
            for future in as_completed(futures):
                name = futures[future]
                t, rec, hub = swapped.pop(name)
                t.telemetry = hub
                losses[name] = future.result()
                rec.replay_into(self._telemetry)
                on_ready(name)
        finally:
            for t, _, hub in swapped.values():  # only on error paths
                t.telemetry = hub
        emit_resource_sample(
            self._telemetry, source="driver", backend=self.name, worker=0
        )
        return {t.name: losses[t.name] for t in self._trainers}
