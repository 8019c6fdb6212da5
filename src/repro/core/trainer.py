"""The trainer abstraction (paper Section III-A).

"A trainer is a collection of compute resources that operate together as a
unit ... responsible for training models, usually with a variant of
stochastic gradient descent."  Here a trainer owns one CycleGAN surrogate,
a reader over its data silo, a local *tournament* holdout (drawn from the
silo, used to judge LTFB candidates), and the two optimizers of the GAN.

Data parallelism inside the trainer is a performance concern: the
mathematical result of a data-parallel step equals a single-process step
on the global mini-batch (gradient averaging), so the functional trainer
computes exactly that, and :mod:`repro.core.perfmodel` prices how long the
real 16-GPU version would take.
Trainers that differ only in learning rates can train as one stacked
population (:func:`train_lockstep`), bit-identical to k separate steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.enums import AdoptOptimizer, ExchangeScope
from repro.datastore.pipeline import build_pipeline
from repro.datastore.reader import Reader
from repro.models.autoencoder import LatentTable
from repro.models.cyclegan import ICFSurrogate, SurrogateConfig
from repro.tensorlib.optimizers import Adam, Optimizer

if TYPE_CHECKING:
    from repro.telemetry import TelemetryHub

__all__ = ["TrainerConfig", "Trainer", "ScoreTable", "lockstep_groups", "train_lockstep"]


@dataclass(frozen=True)
class TrainerConfig:
    """Per-trainer knobs; defaults follow the paper (batch 128, Adam 1e-3)."""

    batch_size: int = 128
    tournament_metric: str = "val_loss"  # or "discriminator"
    # What happens to the generator optimizer when a foreign generator is
    # adopted; see :class:`repro.core.enums.AdoptOptimizer` (a member or
    # its string value).
    adopt_optimizer: AdoptOptimizer | str = AdoptOptimizer.EXCHANGE

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.tournament_metric not in ("val_loss", "discriminator"):
            raise ValueError(
                f"tournament_metric must be 'val_loss' or 'discriminator', "
                f"got {self.tournament_metric!r}"
            )
        object.__setattr__(
            self, "adopt_optimizer", AdoptOptimizer.coerce(self.adopt_optimizer)
        )


class Trainer:
    """One LTFB trainer: surrogate + silo reader + tournament data.

    Parameters
    ----------
    name:
        Trainer id, e.g. ``"trainer03"``.
    surrogate:
        The CycleGAN this trainer trains (with its *local* discriminator).
    reader:
        Mini-batch source over this trainer's data silo.
    tournament_batch:
        Held-out local samples (field dict) used to score tournament
        candidates.
    config:
        Behavioural knobs.
    prefetch_depth:
        How many batches the data pipeline materializes ahead of training
        (0 = synchronous).  A performance knob, not a config: execution
        backends overwrite it at bind time, and any depth yields
        bit-identical training because batch *plans* are independent of
        materialization (see :mod:`repro.datastore.pipeline`).
    """

    def __init__(
        self,
        name: str,
        surrogate: ICFSurrogate,
        reader: Reader,
        tournament_batch: Mapping[str, np.ndarray],
        config: TrainerConfig = TrainerConfig(),
        prefetch_depth: int = 0,
    ) -> None:
        self.name = name
        self.surrogate = surrogate
        self.reader = reader
        self.tournament_batch = dict(tournament_batch)
        self.config = config
        scfg: SurrogateConfig = surrogate.config
        self.disc_optimizer: Optimizer = Adam(scfg.disc_learning_rate)
        self.gen_optimizer: Optimizer = Adam(scfg.learning_rate)
        self.steps_done = 0
        self.tournaments_won = 0
        self.tournaments_lost = 0
        # Data pipeline over the reader: built lazily on the first batch
        # (so an untrained trainer never touches the reader RNG), or
        # rebuilt from a pending plan-cursor state (checkpoint restore /
        # arrival in a worker process).
        self.prefetch_depth = int(prefetch_depth)
        self._pipeline = None
        self._pipeline_state: dict | None = None
        # The frozen encoder's outputs per silo sample, kept instead of
        # recomputed (filled as epoch 0 streams through, gathered from
        # afterwards).  Derived state, refilled wherever the trainer lands:
        # it pickles as empty and is in no checkpoint or exec-state snapshot.
        self.latent_table = LatentTable()
        # Telemetry sink: population drivers attach their hub here so
        # train_steps can emit step_end events; None means uninstrumented.
        self.telemetry: TelemetryHub | None = None
        # Execution placement, stamped into step_end events.  Backends
        # (repro.exec) overwrite these when they bind/ship the trainer;
        # a bare trainer trains in-process, hence the serial defaults.
        self.backend_name: str = "serial"
        self.worker_index: int = 0
        # The surrogate train_lockstep stacks this trainer's group into
        # (derived, built on first use, never shipped).
        self._population: ICFSurrogate | None = None

    # -- training ----------------------------------------------------------

    def _data_pipeline(self):
        if self._pipeline is None:
            self._pipeline = build_pipeline(
                self.reader, self.config.batch_size, self.prefetch_depth
            )
            if self._pipeline_state is not None:
                self._pipeline.restore(self._pipeline_state)
                self._pipeline_state = None
        return self._pipeline

    def _next_batch(self):
        pipeline = self._data_pipeline()
        pipeline.telemetry = self.telemetry
        pipeline.context = {
            "trainer": self.name,
            "backend": self.backend_name,
            "worker": self.worker_index,
        }
        return pipeline.next_batch()

    # -- data-pipeline lifecycle --------------------------------------------

    def data_state(self) -> dict | None:
        """The plan cursor of the in-flight epoch (JSON-serializable), or
        ``None`` when the trainer has never drawn a batch."""
        if self._pipeline is not None:
            return self._pipeline.state()
        return self._pipeline_state

    def set_data_state(self, state: Mapping | None) -> None:
        """Adopt a plan cursor; the pipeline rebuilds lazily from it."""
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None
        self._pipeline_state = dict(state) if state is not None else None

    def suspend_data_pipeline(self) -> None:
        """Fold a live pipeline back into its plan-cursor state.

        Stops any prefetch thread; prefetched-but-undelivered batches are
        dropped (they are re-materialized from the plan on resume)."""
        if self._pipeline is not None:
            state = self._pipeline.state()
            self._pipeline.close()
            self._pipeline = None
            self._pipeline_state = state

    def set_prefetch_depth(self, depth: int) -> None:
        """Change the pipeline depth without changing what gets trained."""
        if depth < 0:
            raise ValueError(f"prefetch_depth must be >= 0, got {depth}")
        if depth != self.prefetch_depth:
            self.suspend_data_pipeline()
            self.prefetch_depth = int(depth)

    def __getstate__(self) -> dict:
        # Live pipelines hold threads and queues; fold them into their
        # serializable plan cursor so trainers can ship mid-epoch (the
        # process backend pickles trainers over pipes).
        self.suspend_data_pipeline()
        state = self.__dict__.copy()
        state["_population"] = None
        return state

    @property
    def span_track(self) -> str:
        """The timeline lane this trainer's spans render on."""
        return f"{self.backend_name}:w{self.worker_index}/{self.name}"

    def train_steps(self, n_steps: int) -> dict[str, float]:
        """Run ``n_steps`` GAN steps; returns mean loss terms.  A group
        of one in :func:`train_lockstep` (which documents the telemetry)."""
        return train_lockstep([self], n_steps)[0]

    def _step_inputs(self) -> tuple[Mapping[str, np.ndarray], np.ndarray]:
        """Draw the next batch; returns its feeds and the real latents
        (from the per-sample table)."""
        mb = self._next_batch()
        latent_real = self.latent_table.latents(
            self.surrogate.autoencoder,
            mb.sample_ids,
            mb.feeds["scalars"],
            mb.feeds["images"],
        )
        return mb.feeds, latent_real

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        batch: Mapping[str, np.ndarray],
        latent_real: np.ndarray | None = None,
    ) -> dict[str, float]:
        """Full surrogate metrics on an arbitrary batch (e.g. global val).

        ``latent_real`` is the batch's encoding when the caller keeps it
        (drivers do, for their fixed validation batch)."""
        return self.surrogate.evaluate(batch, latent_real)

    def tournament_score(self) -> float:
        """Score the *current* generator on the local tournament set with
        the configured metric (lower is better for both metrics)."""
        batch = self.tournament_batch
        if self.config.tournament_metric == "val_loss":
            return self.surrogate.evaluate(batch, inverse=False)["val_loss"]
        return self.surrogate.discriminator_score(batch)

    def score_candidate(
        self,
        weights: Mapping[str, np.ndarray],
        scope: ExchangeScope | str = ExchangeScope.GENERATOR,
    ) -> float:
        """Score foreign weights on the local tournament set, leaving this
        trainer's own model untouched.

        With ``scope="generator"`` only the candidate's generator is
        swapped in (the paper's GAN tournament); with ``"full"`` the whole
        model is (classic LTFB).
        """
        with self.swapped_weights(weights, scope):
            return self.tournament_score()

    def swapped_weights(self, weights: Mapping[str, np.ndarray], scope):
        """Context manager: the foreign ``weights`` swapped in for the
        block, the trainer's own weights restored on exit (even on error).
        The swap-score-restore primitive behind :meth:`score_candidate`,
        also used by judges that score candidates with other metrics
        (:class:`~repro.eval.judge.DivergenceJudge`)."""
        return _SwappedWeights(self, weights, scope)

    # -- LTFB plumbing ----------------------------------------------------------

    def _scope_accessors(self, scope: ExchangeScope | str):
        scope = ExchangeScope.coerce(scope)
        if scope is ExchangeScope.GENERATOR:
            return (
                self.surrogate.get_generator_state,
                self.surrogate.set_generator_state,
            )
        return self.surrogate.get_full_state, self.surrogate.set_full_state

    def generator_state(self) -> dict[str, np.ndarray]:
        return self.surrogate.get_generator_state()

    def exchange_package(
        self, scope: ExchangeScope | str = ExchangeScope.GENERATOR
    ) -> dict:
        """The tournament exchange payload: weights in the given scope
        plus, under ``adopt_optimizer="exchange"``, the matching optimizer
        state (generator optimizer always; discriminator optimizer too
        when the full model travels)."""
        scope = ExchangeScope.coerce(scope)
        getter, _ = self._scope_accessors(scope)
        package: dict = {"scope": scope.value, "weights": getter()}
        if self.config.adopt_optimizer == AdoptOptimizer.EXCHANGE:
            package["gen_optimizer"] = self.gen_optimizer.get_state()
            if scope is ExchangeScope.FULL:
                package["disc_optimizer"] = self.disc_optimizer.get_state()
        return package

    def adopt_package(self, package: Mapping) -> None:
        """Adopt an :meth:`exchange_package` payload."""
        scope = ExchangeScope.coerce(package.get("scope", "generator"))
        _, setter = self._scope_accessors(scope)
        setter(package["weights"])
        mode = self.config.adopt_optimizer
        if mode == AdoptOptimizer.RESET:
            self.gen_optimizer.reset()
            if scope is ExchangeScope.FULL:
                self.disc_optimizer.reset()
            return
        if mode == AdoptOptimizer.EXCHANGE:
            if package.get("gen_optimizer") is not None:
                self.gen_optimizer.set_state(package["gen_optimizer"])
            if scope is ExchangeScope.FULL and package.get("disc_optimizer") is not None:
                self.disc_optimizer.set_state(package["disc_optimizer"])

    def __repr__(self) -> str:
        return (
            f"Trainer({self.name!r}, steps={self.steps_done}, "
            f"silo={self.reader.num_samples})"
        )


class _SwappedWeights:
    """Swap foreign weights in on entry, restore the trainer's own on exit."""

    def __init__(self, trainer: Trainer, weights: Mapping, scope) -> None:
        self._getter, self._setter = trainer._scope_accessors(scope)
        self._weights = weights
        self._own = None

    def __enter__(self) -> None:
        self._own = self._getter()
        self._setter(self._weights)

    def __exit__(self, *exc_info) -> None:
        self._setter(self._own)


class ScoreTable:
    """One round's generator scorings, each computed once (DESIGN.md §6.2).
    The key is the generator's content, so no row is ever invalidated: the
    driver clears the table at every round start only to bound it."""

    def __init__(self) -> None:
        self._rows: dict = {}  # key -> (the set's arrays, held; the result)

    def clear(self) -> None:
        self._rows.clear()

    def lookup(self, what, surrogate: ICFSurrogate, arrays, compute, weights=None):
        """``compute()``, or what it returned for the same key (a dict comes
        back as a copy); ``what=None`` always computes.  Key: ``what``, the
        generator's F and G bytes (``surrogate``'s own, or a candidate's
        exchanged ``weights``), the ``arrays`` by identity, the autoencoder
        and its generation, and the config but for learning rates."""
        if what is None:
            return compute()
        digest = hashlib.blake2b(digest_size=16)
        if weights is None:
            weights = surrogate.get_generator_state()
        for name, value in weights.items():
            if not name.startswith("discriminator/"):
                digest.update(f"{name}{value.shape}".encode())
                digest.update(np.ascontiguousarray(value))
        arrays, ae = tuple(arrays), surrogate.autoencoder
        key = (what, digest.digest(), *map(id, arrays), ae, ae.generation,
               _config_sans_rates(surrogate))
        if key not in self._rows:
            self._rows[key] = (arrays, compute())
        value = self._rows[key][1]
        return dict(value) if isinstance(value, dict) else value


# ---------------------------------------------------------------------------
# Lockstep: a group of trainers as one stacked population
# ---------------------------------------------------------------------------


def lockstep_key(trainer: Trainer) -> tuple:
    """Trainers stack when these match: surrogate config but learning rates,
    autoencoder object, batch size, optimizer classes and hyperparameters."""
    cfg = _config_sans_rates(trainer.surrogate)
    optimizers = [
        (type(o), tuple(o.hyperparameters().items()))
        for o in (trainer.disc_optimizer, trainer.gen_optimizer)
    ]
    ae, batch = id(trainer.surrogate.autoencoder), trainer.config.batch_size
    return cfg, ae, batch, *optimizers


def _config_sans_rates(surrogate: ICFSurrogate):
    return dataclasses.replace(surrogate.config, learning_rate=1.0, disc_learning_rate=1.0)


def lockstep_groups(trainers: Sequence[Trainer]) -> list[list[Trainer]]:
    """Partition ``trainers`` by :func:`lockstep_key`, in population order."""
    groups: dict[tuple, list[Trainer]] = {}
    for t in trainers:
        groups.setdefault(lockstep_key(t), []).append(t)
    return list(groups.values())


def train_lockstep(trainers: Sequence[Trainer], n_steps: int) -> list[dict[str, float]]:
    """Train a :func:`lockstep_groups` group ``n_steps``; returns each
    trainer's mean loss terms.  Each step, every trainer draws its own batch
    and latents, then one ``train_step`` runs on the stacked population
    (weights, optimizer slots and step counts gathered on entry and
    scattered back at the end).  Per trainer: ``train_interval`` and
    ``train_step`` spans on its track (a step spans its draw and the stacked
    compute, so traced trainers need separate sinks), and one ``step_end``
    whose ``elapsed_s`` is its draw time plus 1/k of the rest."""
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    t_start = time.perf_counter()
    lead = trainers[0]
    if lead._population is None:
        lead._population = ICFSurrogate.population_of(lead.surrogate)
    population, k = lead._population, len(trainers)
    population.stack([t.surrogate for t in trainers])
    disc = Optimizer.stack([t.disc_optimizer for t in trainers])
    gen = Optimizer.stack([t.gen_optimizer for t in trainers])
    latent_counts = [(t.latent_table.hits, t.latent_table.misses) for t in trainers]
    draw_s = [0.0] * k
    sums: list[dict[str, float]] = [{} for _ in trainers]
    with ExitStack() as intervals:
        for t in trainers:
            _span(intervals, t, "train_interval", "train",
                  trainer=t.name, steps=n_steps)
        for i in range(n_steps):
            with ExitStack() as steps:
                drawn = []
                for j, t in enumerate(trainers):
                    t0 = time.perf_counter()
                    _span(steps, t, "train_step", "step", step=t.steps_done + i)
                    drawn.append(t._step_inputs())
                    draw_s[j] += time.perf_counter() - t0
                feeds, latents = zip(*drawn)
                terms = population.train_step(
                    {name: np.stack([f[name] for f in feeds]) for name in feeds[0]},
                    disc, gen, np.stack(latents),
                )
            for j, trainer_sums in enumerate(sums):
                for name, values in terms.items():
                    trainer_sums[name] = trainer_sums.get(name, 0.0) + float(values[j])
    population.unstack([t.surrogate for t in trainers])
    disc.unstack()
    gen.unstack()
    shared_s = (time.perf_counter() - t_start - sum(draw_s)) / k
    results = []
    for t, trainer_sums, own_s, (hits0, misses0) in zip(
        trainers, sums, draw_s, latent_counts
    ):
        t.steps_done += n_steps
        results.append({name: v / n_steps for name, v in trainer_sums.items()})
        if t.telemetry is not None:
            t.telemetry.emit(
                "step_end",
                trainer=t.name,
                steps=n_steps,
                steps_done=t.steps_done,
                losses=results[-1],
                elapsed_s=own_s + shared_s,
                backend=t.backend_name,
                worker=t.worker_index,
                latent_hits=t.latent_table.hits - hits0,
                latent_misses=t.latent_table.misses - misses0,
            )
    return results


def _span(stack: ExitStack, t: Trainer, name: str, cat: str, **attrs) -> None:
    tracer = getattr(t.telemetry, "tracer", None)
    if tracer is not None:
        stack.enter_context(tracer.span(name, cat=cat, track=t.span_track, **attrs))
