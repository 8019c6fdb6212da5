"""SerialBackend: the reference in-process executor."""

from __future__ import annotations

from repro.core.trainer import lockstep_groups, train_lockstep
from repro.exec.base import EventRecorder, ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Train the population in lockstep in the driver process.

    Each :func:`~repro.core.trainer.lockstep_groups` group trains as one
    stack (:func:`~repro.core.trainer.train_lockstep`), bit-identical to
    one trainer at a time; private recorders replay into the hub in
    population order after everyone trained, as the one-at-a-time loop
    emitted.  The driver's trainers are the executing state, so
    ``mark_dirty`` has nothing to do.  ``max_workers`` is accepted for the
    shared signature (serial is one slot); ``prefetch_depth`` still lets
    pipelines materialize ahead of the draws.
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
        swapped = self._swap_in_recorders()
        losses = {}
        try:
            for group in lockstep_groups(self._trainers):
                losses.update(zip(
                    (t.name for t in group), train_lockstep(group, n_steps)
                ))
        finally:
            for t in self._trainers:
                t.telemetry = swapped[t.name][1]
        # Everyone trains, and every event reaches the hub, before anyone
        # is reported ready, so a barrier-free round's tournaments all
        # follow the whole train phase: serial async runs are deterministic.
        for t in self._trainers:
            swapped[t.name][0].replay_into(self._telemetry)
        for t in self._trainers:
            yield t.name, losses[t.name], EventRecorder()
