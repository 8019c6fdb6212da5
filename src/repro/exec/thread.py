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

from concurrent.futures import ThreadPoolExecutor, as_completed

from repro.exec.base import ExecutionBackend

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Train trainers concurrently on a :class:`ThreadPoolExecutor`.

    During each train phase every trainer's telemetry sink is swapped for
    a private :class:`~repro.exec.base.EventRecorder`, and restored the
    moment its interval completes; the round replays the recorders into
    the driver's hub, so a threaded trace is indistinguishable from a
    serial one apart from the ``backend``/``worker`` attributes and
    wall-clock values.
    """

    name = "thread"
    _pool: ThreadPoolExecutor | None = None

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

    def _train_intervals(self, n_steps: int):
        assert self._pool is not None and self._telemetry is not None
        swapped = self._swap_in_recorders()
        try:
            futures = {
                self._pool.submit(t.train_steps, n_steps): t
                for t in self._trainers
            }
            for future in as_completed(futures):
                t = futures[future]
                rec, t.telemetry = swapped.pop(t.name)
                yield t.name, future.result(), rec
        finally:
            for t in self._trainers:  # only on error paths
                if t.name in swapped:
                    t.telemetry = swapped[t.name][1]
