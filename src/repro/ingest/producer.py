"""The producing side: a JAG campaign that streams finished samples.

:func:`~repro.workflow.campaign.run_campaign` generates the whole dataset
up front and bundles it onto the file system; :class:`StreamingCampaign`
is its online counterpart — the same design, the same simulator, the same
workflow-engine schedule, but each task's sample is *published into an
ingest channel at its simulated completion time* and no file is ever
written.  Production is pull-driven: :meth:`StreamingCampaign.pump` takes
the next tasks in completion order
(:meth:`~repro.workflow.engine.EnsembleWorkflow.iter_results`), simulates
them as **one block** (the simulator is vectorized over samples and
row-independent, see :mod:`repro.jag`) and publishes row by row, stopping
at the channel's high watermark.  Backpressure therefore bounds
*publication*; at most one pump's budget of rows is simulated ahead of it
and waits, in order, for the next pump — so the publish sequence is still
a pure function of the pump-call sequence.

Streaming breaks one thing the offline path takes for granted: global
z-score normalization of the scalars (you cannot average what has not
been simulated yet).  The campaign instead simulates a small
*calibration prefix* of the design once at construction and freezes its
mean/std — every streamed sample is normalized with those statistics.
The calibration fields are exposed (:meth:`calibration_fields`) because
a streaming study needs *some* held-out data before training starts;
note the overlap caveat on that method.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from repro.ingest.channel import IngestChannel, StreamedSample
from repro.jag.dataset import JagDatasetConfig, _sweep_order
from repro.jag.postprocess import derive_scalars
from repro.jag.sampling import design_points
from repro.jag.simulator import JagSimulator
from repro.workflow.engine import (
    EnsembleWorkflow,
    TaskResult,
    WorkerPoolSpec,
    WorkflowStats,
)

__all__ = ["StreamingCampaign"]


class StreamingCampaign:
    """A live JAG campaign publishing into an :class:`IngestChannel`.

    Parameters
    ----------
    dataset_config:
        Design size, schema, seed and exploration order — identical
        semantics to the offline campaign, so a streamed universe visits
        the same points in the same order as the bundled dataset would.
    pool:
        Simulated worker-pool geometry; the schedule decides completion
        order and ``produced_at`` stamps.
    task_seconds:
        Simulated duration of one JAG task (~1 CPU-minute in the paper).
    calibration:
        Design-prefix length simulated once at construction for the
        normalization statistics (capped at the design size).
    """

    def __init__(
        self,
        dataset_config: JagDatasetConfig,
        pool: WorkerPoolSpec | None = None,
        task_seconds: float = 60.0,
        calibration: int = 256,
    ) -> None:
        if task_seconds <= 0:
            raise ValueError("task_seconds must be positive")
        if calibration <= 0:
            raise ValueError("calibration must be positive")
        self.config = dataset_config
        self.pool = pool or WorkerPoolSpec()
        self.task_seconds = float(task_seconds)
        s = dataset_config.schema
        self._sim = JagSimulator(
            image_size=s.image_size, views=s.views, channels=s.channels
        )
        x = design_points(
            dataset_config.n_samples,
            s.n_params,
            method=dataset_config.design,
            seed=dataset_config.seed,
        ).astype(np.float32)
        if dataset_config.order == "sweep":
            x = x[_sweep_order(x, dataset_config.drive_bands)]
        self._x = x

        # Calibration prefix: simulate once, freeze normalization stats.
        n_cal = min(int(calibration), dataset_config.n_samples)
        state = self._sim.run(x[:n_cal])
        img = self._sim.render_images(state)
        raw = derive_scalars(state, img)
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        self.scalar_mean = mean.astype(np.float32)
        self.scalar_std = np.where(std < 1e-6, 1.0, std).astype(np.float32)
        self._calibration = {
            "params": x[:n_cal].copy(),
            "scalars": ((raw - self.scalar_mean) / self.scalar_std).astype(
                np.float32
            ),
            "images": img.reshape(n_cal, -1).astype(np.float32),
        }

        # Completion-order iterator, started lazily on the first pump, and
        # the rows simulated from it that no pump has published yet.
        self._iter: Iterator[TaskResult] | None = None
        self._ready: deque[StreamedSample] = deque()
        self.pool_stats: WorkflowStats | None = None
        self.produced = 0
        self.exhausted = False
        self.clock_s = 0.0  # simulated time of the newest published task

    def task_sample(self, task_ids: Sequence[int]) -> dict[str, np.ndarray]:
        """Run the JAG physics for a block of design points: simulate,
        render, post-process, normalize.  Row ``i`` of every returned
        array is ``task_ids[i]``'s sample, bit-equal to simulating that
        point alone.  All streamed simulation goes through here."""
        rows = self._x[np.asarray(task_ids, dtype=np.int64)]
        state = self._sim.run(rows)
        img = self._sim.render_images(state)
        scalars = (derive_scalars(state, img) - self.scalar_mean) / self.scalar_std
        return {
            "params": rows,
            "scalars": scalars.astype(np.float32),
            "images": img.reshape(len(rows), -1).astype(np.float32),
        }

    def _results(self) -> Iterator[TaskResult]:
        times = [self.task_seconds] * self.config.n_samples
        workflow = EnsembleWorkflow(self.pool)  # timing only
        _, self.pool_stats = workflow._schedule(times)
        return workflow.iter_results(times)

    def _simulate_ahead(self, n_tasks: int) -> None:
        """Take the next ``n_tasks`` completions off the schedule and
        simulate them in one call; the rows queue up for publication."""
        block = list(islice(self._iter, n_tasks))
        if not block:
            return
        fields = self.task_sample([r.task_id for r in block])
        for i, r in enumerate(block):
            self._ready.append(
                StreamedSample(
                    sample_id=r.task_id,
                    fields={name: column[i] for name, column in fields.items()},
                    produced_at=r.end_time,
                    task_id=r.task_id,
                )
            )

    def pump(self, channel: IngestChannel, max_tasks: int) -> int:
        """Publish up to ``max_tasks`` finished simulations.

        Simulates (at most once per call) whatever the queue of
        simulated-but-unpublished rows lacks of ``max_tasks``, then
        publishes in completion order.  Honors the channel's watermark
        pause: publication stops as soon as :attr:`IngestChannel.paused`
        turns on; rows already simulated wait for the next pump, the rest
        of the schedule has not run.  Returns the number of samples
        published this call.
        """
        if max_tasks <= 0:
            raise ValueError("max_tasks must be positive")
        if self.exhausted:
            return 0
        if self._iter is None:
            self._iter = self._results()
        short = max_tasks - len(self._ready)
        if short > 0 and not channel.paused:
            self._simulate_ahead(short)
        published = 0
        while published < max_tasks and not channel.paused:
            if not self._ready:
                self.exhausted = True
                break
            sample = self._ready.popleft()
            self.clock_s = max(self.clock_s, sample.produced_at)
            channel.publish(sample)
            self.produced += 1
            published += 1
        return published

    def calibration_fields(self) -> dict[str, np.ndarray]:
        """The simulated calibration prefix, normalized.

        Usable as an evaluation batch before anything has streamed in.
        Caveat: the campaign *also* streams these design points as
        regular tasks, so a universe that has absorbed the whole stream
        overlaps this set — fine for smoke studies and shape checks, not
        a clean held-out set for quality claims.
        """
        return {k: v.copy() for k, v in self._calibration.items()}

    def __repr__(self) -> str:
        return (
            f"StreamingCampaign(n={self.config.n_samples}, "
            f"produced={self.produced}, exhausted={self.exhausted})"
        )
