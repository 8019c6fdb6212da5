"""The live quality probe: per-trainer, per-round divergence telemetry.

:class:`QualityProbe` is a driver :class:`~repro.telemetry.Callback`
that, at every round end, runs each trainer's generator over a bounded
ground-truth reference (params paired with simulated scalars, kept in a
:class:`~repro.eval.reservoir.Reservoir`) and scores the predicted
scalar distribution with the fixed estimator protocol of
:mod:`repro.eval.divergence`.  The signal fans out three ways:

- an ``eval`` telemetry event per round carrying a ``divergence``
  payload (per-trainer metric dicts) — the live plane's
  ``quality_collapse`` detector and the trace-report quality section
  read this;
- ``eval.probe`` / ``eval.trainer`` spans when the run is traced;
- ``repro_eval_divergence{trainer,metric}`` gauges when a
  :class:`~repro.telemetry.metrics.MetricsRegistry` is attached.

:meth:`summary` condenses the trajectory into the JSON blob the
checkpoint manifest records (``eval_summary``) — the serve-side quality
gate compares candidate checkpoints on it.

Determinism: the probe owns its reservoir's seeded RNG and its forward
passes are pure, so attaching it perturbs neither training nor pairing
streams; given the same run it produces the same numbers.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Mapping

import numpy as np

from repro.eval.divergence import prepare_reference
from repro.eval.reservoir import Reservoir
from repro.telemetry.callbacks import Callback
from repro.telemetry.events import EVAL

__all__ = ["QualityProbe"]


class QualityProbe(Callback):
    """Samples every trainer's generator each round and emits divergence.

    Parameters
    ----------
    capacity:
        Reservoir bound on the ground-truth reference (params + scalars
        rows).  The estimator's variance shrinks with it; 512 rows keep a
        probe round in the low milliseconds at paper scale.
    metric:
        Which estimator metric ranks trainers in :meth:`summary` (and is
        what the serve gate compares): ``"js"`` by default — symmetric
        and bounded, so collapse saturates instead of exploding.
    bins / span / eps:
        The estimator protocol knobs (see :mod:`repro.eval.divergence`).
    seed:
        Seed of the reservoir's private RNG.
    every:
        Probe every N rounds (1 = every round).
    registry:
        Optional metrics registry for the
        ``repro_eval_divergence{trainer,metric}`` gauges.
    """

    #: Metric keys exported to gauges and trajectories.
    EXPORTED = ("kl", "js", "hellinger", "mean_delta", "std_delta")

    def __init__(
        self,
        *,
        capacity: int = 512,
        metric: str = "js",
        bins: int = 32,
        span: float = 4.0,
        eps: float = 1e-6,
        seed: int = 0,
        every: int = 1,
        registry=None,
    ) -> None:
        if metric not in self.EXPORTED:
            raise ValueError(
                f"metric must be one of {self.EXPORTED}, got {metric!r}"
            )
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.metric = metric
        self.bins = int(bins)
        self.span = float(span)
        self.eps = float(eps)
        self.every = int(every)
        self._reservoir = Reservoir(capacity, seed=seed)
        self._param_width: int | None = None
        self.registry = registry
        #: Per-trainer divergence trajectory:
        #: ``{trainer: [(round, {metric: value}), ...]}``.
        self.trajectory: dict[str, list[tuple[int, dict[str, float]]]] = {}
        self.rounds_probed = 0
        self._driver = None

    # -- reference management -------------------------------------------------

    def observe(self, params: np.ndarray, scalars: np.ndarray) -> None:
        """Offer paired ground-truth rows to the bounded reference (e.g.
        from a streamed ingest batch)."""
        params = np.asarray(params)
        scalars = np.asarray(scalars)
        if params.shape[0] != scalars.shape[0]:
            raise ValueError(
                f"params/scalars row mismatch: {params.shape[0]} vs "
                f"{scalars.shape[0]}"
            )
        if self._param_width is None:
            self._param_width = int(params.shape[1])
        self._reservoir.offer(np.hstack([params, scalars]))

    def _reference(self) -> tuple[np.ndarray, np.ndarray] | None:
        if len(self._reservoir) == 0 or self._param_width is None:
            return None
        rows = self._reservoir.sample()
        return rows[:, : self._param_width], rows[:, self._param_width:]

    # -- lifecycle ------------------------------------------------------------

    def on_run_begin(self, driver) -> None:
        self._driver = driver
        if len(self._reservoir) == 0:
            batch = driver.eval_batch
            if batch is not None and "params" in batch and "scalars" in batch:
                self.observe(batch["params"], batch["scalars"])
            else:
                # No global validation batch: fall back to the union of the
                # local tournament holdouts (still simulated ground truth).
                for trainer in driver.trainers:
                    tb = trainer.tournament_batch
                    if "params" in tb and "scalars" in tb:
                        self.observe(tb["params"], tb["scalars"])

    def on_round_end(self, event) -> None:
        driver = self._driver
        if driver is None:
            return
        round_index = int(event.payload.get("round", self.rounds_probed))
        if round_index % self.every != 0:
            return
        reference = self._reference()
        if reference is None:
            return
        params, scalars = reference
        tracer = driver.telemetry.tracer
        probe_span = (
            tracer.span("eval.probe", cat="eval", track="driver",
                        round=round_index)
            if tracer is not None else nullcontext()
        )
        t0 = time.perf_counter()
        divergence: dict[str, dict[str, float]] = {}
        with probe_span:
            # One reservoir sample per round: its statistics and histograms
            # are the same for every trainer scored against it.
            prepared = prepare_reference(
                scalars, bins=self.bins, span=self.span, eps=self.eps
            )
            for trainer in driver.trainers:
                trainer_span = (
                    tracer.span("eval.trainer", cat="eval", track="driver",
                                round=round_index, trainer=trainer.name)
                    if tracer is not None else nullcontext()
                )
                with trainer_span:
                    result = driver.scores.lookup(
                        ("probe", self.bins, self.span, self.eps),
                        trainer.surrogate, (params, scalars),
                        lambda: prepared.score(trainer.surrogate.predict_outputs(params)[0]),
                    )
                metrics = {k: result.value(k) for k in self.EXPORTED}
                divergence[trainer.name] = metrics
                self.trajectory.setdefault(trainer.name, []).append(
                    (round_index, metrics)
                )
                if self.registry is not None:
                    for key, value in metrics.items():
                        self.registry.gauge(
                            "repro_eval_divergence",
                            "per-trainer divergence of generated scalars "
                            "vs ground truth (quality probe)",
                            labels={"trainer": trainer.name, "metric": key},
                        ).set(value)
        self.rounds_probed += 1
        driver.telemetry.emit(
            EVAL,
            round=round_index,
            divergence=divergence,
            metric=self.metric,
            elapsed_s=time.perf_counter() - t0,
        )

    # -- the manifest payload -------------------------------------------------

    def summary(self, winner: str | None = None) -> dict | None:
        """The eval summary the checkpoint manifest records.

        ``{"metric", "bins", "span", "round", "trainers": {name: {...}},
        "winner", "winner_value"}`` — last probed values per trainer;
        ``winner_value`` (the gate's comparison key) is the winner's
        ranking metric when a winner is named, else the population best.
        Returns ``None`` when the probe never ran.
        """
        if not self.trajectory:
            return None
        trainers: dict[str, dict] = {}
        last_round = -1
        for name, rows in self.trajectory.items():
            round_index, metrics = rows[-1]
            trainers[name] = {"round": round_index, **metrics}
            last_round = max(last_round, round_index)
        if winner is not None and winner in trainers:
            winner_value = trainers[winner][self.metric]
        else:
            winner_value = min(t[self.metric] for t in trainers.values())
        return {
            "metric": self.metric,
            "bins": self.bins,
            "span": self.span,
            "round": last_round,
            "trainers": trainers,
            "winner": winner,
            "winner_value": float(winner_value),
        }


def summary_value(summary: Mapping | None) -> float | None:
    """The gate's comparison key out of a recorded eval summary: the
    stamped ``winner_value``, falling back to the named winner's ranking
    metric, then the population best.  ``None`` when the summary is
    absent or carries no usable value (the gate passes open on those).
    """
    if summary is None:
        return None
    value = summary.get("winner_value")
    if value is not None:
        return float(value)
    metric = summary.get("metric", "js")
    trainers = summary.get("trainers") or {}
    winner = summary.get("winner")
    if winner in trainers and metric in trainers[winner]:
        return float(trainers[winner][metric])
    values = [t[metric] for t in trainers.values() if metric in t]
    return min(values) if values else None


__all__.append("summary_value")
