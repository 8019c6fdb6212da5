"""SerialBackend: the reference in-process, one-at-a-time executor."""

from __future__ import annotations

from repro.exec.base import ExecutionBackend
from repro.telemetry.resources import emit_resource_sample

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Train trainers sequentially in the driver process.

    This is exactly the pre-backend behaviour of the drivers: trainers
    emit their telemetry directly into the driver's hub as they train,
    and the driver's trainer objects are the executing state, so
    ``mark_dirty`` has nothing to do.  Span tracing needs no relay
    plumbing either — trainers see the hub itself as their sink, so the
    hub's tracer (and its clock) is used directly.
    """

    name = "serial"

    def __init__(
        self,
        max_workers: int | None = None,
        prefetch_depth: int | None = None,
    ) -> None:
        # max_workers is accepted (and ignored) so every backend shares
        # one construction signature; serial is definitionally 1 slot.
        # prefetch_depth still matters here: the data pipeline can
        # materialize ahead even when trainers run one at a time.
        super().__init__(prefetch_depth=prefetch_depth)

    def _on_bind(self) -> None:
        for t in self._trainers:
            t.backend_name = self.name
            t.worker_index = 0

    def train_round(
        self, round_index: int, n_steps: int
    ) -> dict[str, dict[str, float]]:
        results = {t.name: t.train_steps(n_steps) for t in self._trainers}
        # All trainer work runs in the driver process, so one sample per
        # train phase is the complete resource picture.
        emit_resource_sample(
            self._telemetry, source="driver", backend=self.name, worker=0
        )
        return results
