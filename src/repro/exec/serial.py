"""SerialBackend: the reference in-process, one-at-a-time executor."""

from __future__ import annotations

from repro.exec.base import EventRecorder, ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Train trainers sequentially in the driver process.

    This is exactly the pre-backend behaviour of the drivers: trainers
    emit their telemetry directly into the driver's hub as they train
    (so the recorders it yields are empty), and the driver's trainer
    objects are the executing state, so ``mark_dirty`` has nothing to do.
    Span tracing needs no relay plumbing either — trainers see the hub
    itself as their sink, so the hub's tracer (and its clock) is used
    directly.  ``max_workers`` is accepted so every backend shares one
    construction signature; serial is definitionally one slot.
    ``prefetch_depth`` still matters: the data pipeline can materialize
    ahead even when trainers run one at a time.
    """

    name = "serial"

    @property
    def num_workers(self) -> int:
        return 1

    def _on_bind(self) -> None:
        for t in self._trainers:
            t.backend_name = self.name
            t.worker_index = 0

    def _train_intervals(self, n_steps: int):
        # Everyone trains before anyone is reported ready, so a
        # barrier-free round's tournaments all follow the whole train
        # phase: serial async runs are deterministic.
        losses = [t.train_steps(n_steps) for t in self._trainers]
        for t, trainer_losses in zip(self._trainers, losses):
            yield t.name, trainer_losses, EventRecorder()
