"""The shared population-driver API.

Both population algorithms — LTFB tournament training
(:class:`~repro.core.ltfb.LtfbDriver`) and the K-independent baseline
(:class:`~repro.core.kindependent.KIndependentDriver`) — extend
:class:`PopulationDriver` and share one contract:

- ``run(callbacks=[...]) -> History`` — run the configured rounds,
  streaming telemetry events to the attached callbacks;
- one :class:`History` shape for both (train losses, eval series, rounds;
  LTFB additionally fills tournaments/pairings/exchange bytes), so Fig.-13
  style code can swap drivers without branching;
- ``best_trainer(metric)`` — population-best selection on the global
  validation batch.

*What* a driver computes is separated from *where* trainer work runs: the
train phase is delegated to an :class:`~repro.exec.ExecutionBackend`
(``backend="serial"|"thread"|"process"``, or an instance), and all
backends are bit-identical at round boundaries because trainers are
independent within a round.

``run`` resumes from ``history.rounds_completed``: a driver constructed
with a partially-filled :class:`History` (e.g. after restoring a
population checkpoint mid-campaign) continues where the history stops.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.trainer import ScoreTable, Trainer
from repro.exec import ExecutionBackend, resolve_backend
from repro.models.autoencoder import BatchLatent
from repro.telemetry import Callback, TelemetryHub
from repro.telemetry.events import EVAL, PAIRING, ROUND_END

__all__ = ["TournamentRecord", "History", "PopulationDriver"]


@dataclass
class TournamentRecord:
    """Outcome of one pairwise tournament at one trainer."""

    round_index: int
    trainer: str
    partner: str
    own_score: float
    partner_score: float
    adopted_partner: bool


@dataclass
class History:
    """Everything a population run produced, for analysis and plots.

    One shape for every driver: LTFB fills all fields; drivers without
    tournaments (K-independent) leave ``tournaments``/``pairings`` empty
    and ``exchange_bytes`` at zero.
    """

    rounds_completed: int = 0
    train_losses: list[dict[str, dict[str, float]]] = field(default_factory=list)
    eval_series: list[dict[str, dict[str, float]]] = field(default_factory=list)
    tournaments: list[TournamentRecord] = field(default_factory=list)
    pairings: list[list[tuple[str, str]]] = field(default_factory=list)
    #: Per round, the trainers the topology deterministically sat out
    #: (odd populations, unmatched grid cells, async leftovers).
    byes: list[list[str]] = field(default_factory=list)
    exchange_bytes: int = 0
    #: :class:`~repro.telemetry.live.Alert` rows appended *at fire time*
    #: by an attached :class:`~repro.telemetry.live.LiveAggregator`
    #: (empty when none ran, or the run was healthy).
    health_warnings: list = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when no health rule fired."""
        return not self.health_warnings

    def adoption_rate(self) -> float:
        """Fraction of tournament decisions that adopted the partner."""
        if not self.tournaments:
            return 0.0
        adopted = sum(1 for t in self.tournaments if t.adopted_partner)
        return adopted / len(self.tournaments)

    def best_val_series(self, metric: str = "val_loss") -> list[float]:
        """Per-round best (min) value of ``metric`` across trainers, from
        the evaluation snapshots recorded by the driver."""
        return [
            min(per_trainer[metric] for per_trainer in snap.values())
            for snap in self.eval_series
        ]


class PopulationDriver:
    """Base class: owns the population, the history, and the telemetry hub.

    Parameters
    ----------
    trainers:
        The population (non-empty, unique names).
    config:
        The round schedule (:class:`~repro.core.ltfb.LtfbConfig`).
    eval_batch:
        Optional *global* validation batch; when given, every trainer is
        evaluated on it after every round and the series is recorded.
    history:
        Optional pre-filled :class:`History` to resume into; ``run`` picks
        up at ``history.rounds_completed``.
    backend:
        Where trainer work executes: ``None``/``"serial"`` (default),
        ``"thread"``, ``"process"``, or a constructed
        :class:`~repro.exec.ExecutionBackend`.
    topology:
        Who exchanges with whom, judged how, and when: ``None`` (no
        coordination — the K-independent shape), one of
        :data:`~repro.core.topology.TOPOLOGY_NAMES`, or a constructed
        :class:`~repro.core.topology.Topology`.  Subclasses override the
        default (LTFB resolves ``None`` to ``"random_pairwise"``).
    pairing_rng:
        RNG handed to topologies that draw random pairings.
    judge:
        What "better" means in tournaments: ``None``/``"loss"`` (the
        paper's tournament-holdout loss, bit-identical to the pre-seam
        behaviour), ``"divergence"`` (rank on distributional fidelity),
        or a constructed :class:`~repro.eval.judge.Judge`.
    source:
        Optional :class:`~repro.ingest.StreamingSource` polled at the top
        of every round: new streamed samples are admitted into the sample
        universe (and propagated to worker replicas through the backend)
        before any training of the round plans against it.  ``None`` for
        the classic fixed-corpus run.
    """

    def __init__(
        self,
        trainers: Sequence[Trainer],
        config,
        eval_batch: Mapping[str, np.ndarray] | None = None,
        history: History | None = None,
        backend: ExecutionBackend | str | None = None,
        topology=None,
        pairing_rng: np.random.Generator | None = None,
        judge=None,
        source=None,
    ) -> None:
        # Deferred imports: repro.core.topology imports this module, and
        # repro.eval.judge sits above core in the layering.
        from repro.core.topology import resolve_topology
        from repro.eval.judge import resolve_judge

        if not trainers:
            raise ValueError("need at least one trainer")
        names = [t.name for t in trainers]
        if len(set(names)) != len(names):
            raise ValueError(f"trainer names must be unique, got {names}")
        self.trainers = list(trainers)
        self.config = config
        self.eval_batch = dict(eval_batch) if eval_batch is not None else None
        # The validation batch's encoding: computed once for the (shared,
        # frozen) autoencoder instead of per trainer per round.
        self._eval_latent = BatchLatent()
        self.history = history if history is not None else History()
        self.telemetry = TelemetryHub()
        self.backend = resolve_backend(backend)
        self.topology = resolve_topology(topology)
        self.topology.bind(names, pairing_rng)
        self.judge = resolve_judge(judge)
        self.source = source
        #: This round's scorings (DESIGN.md §6.2); never checkpointed.
        self.scores = ScoreTable()

    # -- the one run signature ------------------------------------------------

    def run(self, callbacks: Iterable[Callback] = ()) -> History:
        """Run the remaining rounds; returns the (shared-shape) history.

        ``callbacks`` subscribe to the driver's telemetry hub for the
        duration of the run and get the ``on_run_begin``/``on_run_end``
        lifecycle calls.
        """
        attached = list(callbacks)
        for cb in attached:
            self.telemetry.subscribe(cb)
        # Span tracing is opt-in per run: enabled only when an attached
        # callback asks for it (e.g. JsonlTraceWriter(spans=True)), so the
        # permanent instrumentation stays a `tracer is None` branch
        # everywhere else.
        if any(getattr(cb, "wants_spans", False) for cb in attached):
            self.telemetry.start_tracing()
        tracer = self.telemetry.tracer
        for t in self.trainers:
            t.telemetry = self.telemetry
        self.backend.bind(self.trainers, self.telemetry)
        try:
            for cb in attached:
                cb.on_run_begin(self)
            run_span = (
                tracer.span(
                    "run",
                    cat="run",
                    track="driver",
                    driver=type(self).__name__,
                    backend=self.backend.name,
                    workers=self.backend.num_workers,
                    trainers=len(self.trainers),
                )
                if tracer is not None
                else nullcontext()
            )
            with run_span:
                for r in range(self.history.rounds_completed, self.config.rounds):
                    if tracer is not None:
                        with tracer.span("round", cat="round", round=r):
                            self.run_round(r)
                    else:
                        self.run_round(r)
        except BaseException as exc:
            # Crash hook: callbacks get one look at the failure while the
            # population/backend state is still live (the flight recorder
            # dumps its bundle here).  Hook failures must not mask `exc`.
            for cb in attached:
                try:
                    cb.on_run_error(self, exc)
                except Exception:
                    pass
            raise
        finally:
            self.backend.release()
            # Two passes: events emitted from one callback's on_run_end
            # (e.g. ResourceSampler's final sample) must still reach every
            # other callback, so nobody unsubscribes until all have ended.
            for cb in attached:
                cb.on_run_end(self, self.history)
            for cb in attached:
                self.telemetry.unsubscribe(cb)
        return self.history

    def _ingest_phase(self, round_index: int) -> None:
        """Poll the streaming source (when one is attached) before the
        round trains: pump the campaign, drain the channel, grow the
        universe, re-sync every trainer's data pipeline."""
        if self.source is None:
            return
        self.source.telemetry = self.telemetry
        with self._phase_span("ingest", round=round_index):
            self.source.poll(
                self.trainers, backend=self.backend, round_index=round_index
            )

    def run_round(self, round_index: int) -> None:
        """Advance the population by one round: ingest (when streaming),
        train, coordinate per the topology, evaluate.

        A barrier-free topology holds its tournaments *during* the train
        phase: the backend reports each trainer as its interval completes,
        and a pair's tournament runs as soon as both members are ready.
        Its ``pairing`` event is emitted after the train phase — only then
        is the realized pairing order known — and its tournament events
        appear in completion order, interleaved with training telemetry.
        """
        # Deferred import: repro.core.topology imports this module.
        from repro.core.topology import RoundPlan, run_pairwise_tournament

        self.scores.clear()
        self._ingest_phase(round_index)
        topology = self.topology
        timing = {"tournament_s": 0.0, "exchange_s": 0.0}
        span_attrs: dict = {}
        on_ready = None
        if topology.barrier_free:
            topology.begin_round(round_index)
            span_attrs = {"topology": topology.name, "barrier": False}
            name_to_index = {t.name: i for i, t in enumerate(self.trainers)}
            pairs = []

            def on_ready(trainer_name: str) -> None:
                pair = topology.on_ready(name_to_index[trainer_name])
                if pair is None:
                    return
                pairs.append(pair)
                t0 = time.perf_counter()
                exchange_s = run_pairwise_tournament(
                    self, round_index, pair, topology
                )
                timing["exchange_s"] += exchange_s
                timing["tournament_s"] += time.perf_counter() - t0 - exchange_s

        t0 = time.perf_counter()
        with self._phase_span("train", round=round_index, **span_attrs):
            losses = self.backend.train_round(
                round_index, self.config.steps_per_round, on_ready
            )
        self.history.train_losses.append(losses)
        train_s = time.perf_counter() - t0 - sum(timing.values())
        if topology.barrier_free:
            plan = RoundPlan(pairs=tuple(pairs), byes=topology.finish_round())
            self.record_pairings(round_index, plan, topology)
        elif topology.active:
            t0 = time.perf_counter()
            with self._phase_span(
                "tournament", round=round_index, topology=topology.name
            ):
                timing["exchange_s"] = topology.exchange(self, round_index)
            timing["tournament_s"] = (
                time.perf_counter() - t0 - timing["exchange_s"]
            )
        eval_s = self._eval_phase(round_index)
        self._end_round(round_index, train_s=train_s, eval_s=eval_s, **timing)

    def record_pairings(self, round_index: int, plan, topology) -> None:
        """Book one round's realized pairing plan: history rows
        (``pairings``/``byes``) plus the ``pairing`` telemetry event."""
        names = [t.name for t in self.trainers]
        pair_names = [(names[p.a], names[p.b]) for p in plan.pairs]
        bye_names = [names[i] for i in plan.byes]
        self.history.pairings.append(pair_names)
        self.history.byes.append(bye_names)
        self.telemetry.emit(
            PAIRING,
            round=round_index,
            topology=topology.name,
            pairs=[list(p) for p in pair_names],
            bye=bye_names,
            neighborhoods=[p.neighborhood for p in plan.pairs],
        )

    # -- shared round phases --------------------------------------------------

    def _phase_span(self, phase: str, **attrs):
        """A ``phase:<name>`` span on the driver track, or a no-op context
        when tracing is off (the common case)."""
        tracer = self.telemetry.tracer
        if tracer is None:
            return nullcontext()
        return tracer.span(f"phase:{phase}", cat="phase", **attrs)

    def _eval_phase(self, round_index: int) -> float:
        """Evaluate the population on the global batch; returns elapsed."""
        if self.eval_batch is None:
            return 0.0
        t0 = time.perf_counter()
        with self._phase_span("eval", round=round_index):
            snap = {t.name: self._evaluate(t) for t in self.trainers}
        self.history.eval_series.append(snap)
        elapsed = time.perf_counter() - t0
        self.telemetry.emit(
            EVAL, round=round_index, metrics=snap, elapsed_s=elapsed
        )
        return elapsed

    def _evaluate(self, trainer: Trainer) -> dict[str, float]:
        """One trainer's metrics on the global validation batch."""
        batch, ae = self.eval_batch, trainer.surrogate.autoencoder
        return self.scores.lookup(
            ("eval",), trainer.surrogate, batch.values(),
            lambda: trainer.evaluate(batch, self._eval_latent.of(ae, batch)),
        )

    def judge_score(self, trainer: Trainer, weights=None, scope=None) -> float:
        """The judge's score of ``trainer``'s generator, or of a candidate's
        exchanged ``weights`` from its seat, looked up in the round's table
        before the judge is called."""
        judge = self.judge
        return self.scores.lookup(
            judge.scoring(trainer), trainer.surrogate,
            trainer.tournament_batch.values(),
            lambda: judge.score(trainer) if weights is None
            else judge.score_candidate(trainer, weights, scope),
            weights,
        )

    def _end_round(
        self,
        round_index: int,
        train_s: float,
        tournament_s: float = 0.0,
        exchange_s: float = 0.0,
        eval_s: float = 0.0,
    ) -> None:
        """Record round completion and emit the ``round_end`` timing event."""
        self.history.rounds_completed += 1
        self.telemetry.emit(
            ROUND_END,
            round=round_index,
            train_s=train_s,
            tournament_s=tournament_s,
            exchange_s=exchange_s,
            eval_s=eval_s,
            backend=self.backend.name,
            workers=self.backend.num_workers,
        )

    # -- results --------------------------------------------------------------

    def best_trainer(self, metric: str = "val_loss") -> tuple[Trainer, float]:
        """The population's best model by a metric on the global eval batch
        (paper: the final surviving model is selected on validation loss)."""
        if self.eval_batch is None:
            raise ValueError("no global eval batch configured")
        scored = [(t, self._evaluate(t)[metric]) for t in self.trainers]
        return min(scored, key=lambda pair: pair[1])

    def best_val_series(self, metric: str = "val_loss") -> list[float]:
        """Per-round best value of ``metric`` across the population."""
        return self.history.best_val_series(metric)
