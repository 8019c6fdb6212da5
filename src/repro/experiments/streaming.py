"""Streaming ingestion study: train a population from a live campaign.

Every other quality experiment stages its dataset up front (generate,
bundle, partition, read).  This study runs the data plane the way the
paper's production campaign actually ran: an ensemble campaign simulates
JAG points *concurrently with training*, finished samples stream through
a bounded :class:`~repro.ingest.IngestChannel` into a growing
:class:`~repro.ingest.SampleUniverse`, and every trainer's
:class:`~repro.ingest.StreamReader` plans each epoch against an immutable
universe snapshot.  Zero files are pre-staged — the only data trainers
ever see arrived through the channel.

The study runs the same streamed schedule twice:

- **uninterrupted** — prime the universe, pretrain the shared
  autoencoder on what has streamed in, then run R LTFB rounds, each
  beginning with an ingestion poll that grows the universe;
- **interrupted** — identical build, run R/2 rounds, checkpoint the
  population *with the ingestion cursor*
  (``save_population(..., ingest=source.state())``), tear everything
  down, rebuild from seeds, replay the ingestion history
  (:meth:`~repro.ingest.StreamingSource.replay`), restore the
  population, and run the remaining rounds.

The headline check is bit-identity: the resumed run's history (train
losses and eval series) must equal the uninterrupted run's exactly, even
though the universe grew between rounds and the checkpoint usually lands
mid-epoch.  That is the determinism contract of the snapshot-pinned data
plane (see :mod:`repro.ingest`).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.ltfb import LtfbConfig, LtfbDriver
from repro.core.trainer import Trainer, TrainerConfig
from repro.datastore.reader import ArrayReader
from repro.datastore.store import DistributedDataStore
from repro.exec import resolve_backend
from repro.experiments.common import (
    ExperimentReport,
    note_health,
    observability_callbacks,
)
from repro.ingest import (
    IngestChannel,
    SampleUniverse,
    StreamingCampaign,
    StreamingSource,
    StreamReader,
)
from repro.jag.dataset import JagDatasetConfig, JagSchema
from repro.models.autoencoder import MultimodalAutoencoder
from repro.models.cyclegan import ICFSurrogate, SurrogateConfig
from repro.telemetry.callbacks import Callback
from repro.tensorlib.optimizers import Adam
from repro.utils.rng import RngFactory
from repro.workflow.engine import WorkerPoolSpec

__all__ = ["run", "StreamingSpec", "build_streaming_run"]


@dataclass(frozen=True)
class StreamingSpec:
    """Geometry of one streaming study run (campaign, channel, population).

    Everything a build needs to be reproducible from ``seed`` alone — the
    interrupted run rebuilds from the same spec and must replay the
    original ingestion history exactly.
    """

    seed: int = 2019
    k: int = 4
    n_design: int = 1024
    prime_samples: int = 224
    channel_capacity: int = 64
    high_watermark: float = 0.75
    low_watermark: float = 0.25
    # One poll pumps ~3 worker waves (48 tasks / 16 workers x 60 s); a
    # 100 s freshness bound ages the oldest wave out every poll — steady,
    # deterministic eviction pressure on the channel.
    max_age_s: float = 100.0
    retention: str = "recency"
    tasks_per_poll: int = 48
    task_seconds: float = 60.0
    pool_workers: int = 16
    pool_tasks_per_job: int = 8
    calibration: int = 128
    store_ranks: int = 2
    # Per-rank store budget in samples; sized below the universe so live
    # admissions force LRU evictions (the regime under test).
    store_samples_per_rank: int = 96
    ae_epochs: int = 2
    batch_size: int = 32


class _IngestLog(Callback):
    """Collects the per-poll ``ingest`` event payloads of one run."""

    def __init__(self) -> None:
        self.polls: list[dict] = []

    def on_ingest(self, event) -> None:
        self.polls.append(dict(event.payload))


@dataclass
class _StreamingRun:
    """One fully built streamed-training setup (pre-driver)."""

    spec: StreamingSpec
    rngs: RngFactory
    campaign: StreamingCampaign
    channel: IngestChannel
    universe: SampleUniverse
    source: StreamingSource
    autoencoder: MultimodalAutoencoder
    trainers: list[Trainer]
    eval_batch: dict[str, np.ndarray]


def _surrogate_config() -> SurrogateConfig:
    """A laptop-scale surrogate over the small JAG schema."""
    return SurrogateConfig(
        schema=JagSchema(image_size=8, views=2, channels=2),
        ae_hidden=(48, 32),
        forward_hidden=(24, 24),
        inverse_hidden=(24, 24),
        disc_hidden=(16, 8),
        batch_size=32,
    )


def build_streaming_run(spec: StreamingSpec) -> _StreamingRun:
    """Build a streamed-training setup from seeds, with no staged files.

    Deterministic end to end: campaign schedule, channel policy, priming
    polls, autoencoder pretraining, and population construction are all
    pure functions of ``spec`` — which is what lets the interrupted run
    rebuild and replay the uninterrupted run's ingestion history.
    """
    rngs = RngFactory(spec.seed)
    surrogate_cfg = _surrogate_config()
    campaign = StreamingCampaign(
        JagDatasetConfig(
            n_samples=spec.n_design,
            schema=surrogate_cfg.schema,
            seed=spec.seed,
        ),
        pool=WorkerPoolSpec(
            num_workers=spec.pool_workers,
            tasks_per_job=spec.pool_tasks_per_job,
        ),
        task_seconds=spec.task_seconds,
        calibration=spec.calibration,
    )
    channel = IngestChannel(
        spec.channel_capacity,
        retention=spec.retention,
        high_watermark=spec.high_watermark,
        low_watermark=spec.low_watermark,
        max_age_s=spec.max_age_s,
        seed=spec.seed,
    )
    universe = SampleUniverse()
    source = StreamingSource(
        campaign, channel, universe, tasks_per_poll=spec.tasks_per_poll
    )
    source.prime(spec.prime_samples)

    # The shared autoencoder pretrains on exactly what has streamed in so
    # far (the primed snapshot) — there is no staged dataset to read.
    fields = universe.stack_fields()
    n = next(iter(fields.values())).shape[0]
    autoencoder = MultimodalAutoencoder(
        rngs.child("autoencoder"),
        surrogate_cfg.schema,
        hidden=surrogate_cfg.ae_hidden,
        latent_dim=surrogate_cfg.latent_dim,
    )
    ae_reader = ArrayReader(
        fields, np.arange(n), rngs.generator("autoencoder/reader")
    )
    ae_optimizer = Adam(surrogate_cfg.learning_rate)
    for _ in range(spec.ae_epochs):
        for mb in ae_reader.epoch(min(spec.batch_size, n)):
            autoencoder.train_step(mb.feeds, ae_optimizer)

    # Per-sample footprint sizes the evicting stores: each holds a slice
    # of the universe, so streamed growth keeps displacing LRU residents.
    sample_nbytes = sum(
        np.asarray(v).nbytes
        for v in universe.fields_of(int(universe.snapshot_ids(1)[0])).values()
    )
    bytes_per_rank = sample_nbytes * spec.store_samples_per_rank

    eval_batch = campaign.calibration_fields()
    trainer_cfg = TrainerConfig(batch_size=spec.batch_size)
    trainers: list[Trainer] = []
    for i in range(spec.k):
        name = f"trainer{i:02d}"
        child = rngs.child(name)
        store = DistributedDataStore(
            num_ranks=spec.store_ranks,
            bytes_per_rank=bytes_per_rank,
            evicting=True,
        )
        universe.warm(store)
        reader = StreamReader(universe, child.generator("reader"), store=store)
        surrogate = ICFSurrogate(child, surrogate_cfg, autoencoder)
        trainers.append(
            Trainer(name, surrogate, reader, eval_batch, trainer_cfg)
        )
    return _StreamingRun(
        spec=spec,
        rngs=rngs,
        campaign=campaign,
        channel=channel,
        universe=universe,
        source=source,
        autoencoder=autoencoder,
        trainers=trainers,
        eval_batch=eval_batch,
    )


def _driver(
    setup: _StreamingRun,
    rounds: int,
    steps_per_round: int,
    backend: str,
    workers: int | None,
    prefetch_depth: int | None,
    history=None,
) -> LtfbDriver:
    return LtfbDriver(
        setup.trainers,
        setup.rngs.generator("pairing"),
        LtfbConfig(steps_per_round=steps_per_round, rounds=rounds),
        eval_batch=setup.eval_batch,
        history=history,
        backend=resolve_backend(
            backend, max_workers=workers, prefetch_depth=prefetch_depth
        ),
        source=setup.source,
    )


def _history_delta(a, b) -> float:
    """Largest absolute difference between two histories' numeric series
    (0.0 means bit-identical losses and eval curves)."""
    if len(a.train_losses) != len(b.train_losses) or len(a.eval_series) != len(
        b.eval_series
    ):
        return float("inf")
    worst = 0.0
    for series_a, series_b in (
        (a.train_losses, b.train_losses),
        (a.eval_series, b.eval_series),
    ):
        for row_a, row_b in zip(series_a, series_b):
            if set(row_a) != set(row_b):
                return float("inf")
            for name in row_a:
                if set(row_a[name]) != set(row_b[name]):
                    return float("inf")
                for metric in row_a[name]:
                    worst = max(
                        worst, abs(row_a[name][metric] - row_b[name][metric])
                    )
    return worst


def run(
    seed: int = 2019,
    k: int = 4,
    rounds: int = 8,
    steps_per_round: int = 6,
    n_design: int = 1024,
    backend: str = "serial",
    workers: int | None = None,
    prefetch_depth: int | None = None,
    trace_out=None,
    metrics=None,
    trace_files=None,
    flight_recorder=None,
) -> ExperimentReport:
    """The streaming-ingestion study: live universe + mid-run resume.

    Trains one population entirely from a concurrently running campaign
    (uninterrupted), then proves the interrupted path: checkpoint at
    round ``rounds // 2`` with the ingestion cursor, rebuild everything
    from seeds, replay ingestion, restore, finish — and require the two
    histories to be bit-identical.
    """
    if rounds < 2:
        raise ValueError("the study needs at least 2 rounds to interrupt")
    spec = StreamingSpec(
        seed=seed,
        k=k,
        n_design=n_design,
        # Leave most of the design unsimulated at build time: the point
        # is training against a universe that keeps growing.
        prime_samples=min(224, n_design // 4),
    )
    observability = dict(
        trace_out=trace_out,
        metrics=metrics,
        monitor_health=True,
        trace_files=trace_files,
        flight_recorder=flight_recorder,
    )

    # -- run A: uninterrupted ------------------------------------------------
    setup_a = build_streaming_run(spec)
    prime_polls = setup_a.source.polls
    size_at_build = setup_a.universe.size
    ingest_log = _IngestLog()
    driver_a = _driver(
        setup_a, rounds, steps_per_round, backend, workers, prefetch_depth
    )
    history_a = driver_a.run(
        callbacks=[
            ingest_log,
            *observability_callbacks("streaming/full", **observability),
        ]
    )

    # -- run B: interrupted at rounds // 2, checkpointed, resumed ------------
    half = rounds // 2
    setup_b = build_streaming_run(spec)
    driver_b = _driver(
        setup_b, half, steps_per_round, backend, workers, prefetch_depth
    )
    history_b = driver_b.run(
        callbacks=observability_callbacks("streaming/first-half", **observability)
    )
    mid_epoch = [
        t.name for t in setup_b.trainers if t.data_state() is not None
    ]
    with tempfile.TemporaryDirectory(prefix="repro-streaming-") as ckpt_dir:
        store = CheckpointStore(ckpt_dir)
        tag = store.save_population(
            setup_b.trainers,
            "streaming-mid",
            topology=driver_b.topology,
            ingest=setup_b.source.state(),
        )
        # Teardown is implicit: the resumed half starts from nothing but
        # the checkpoint directory, the seeds, and the recorded History.
        setup_c = build_streaming_run(spec)
        setup_c.source.replay(store.ingest_state(tag))
        for t in setup_c.trainers:
            # Replay polls are trainer-less; bring the evicting stores
            # back up to the retained universe (store state never affects
            # History bits — fallbacks return identical arrays).
            setup_c.universe.warm(t.reader.store)
        driver_c = _driver(
            setup_c, rounds, steps_per_round, backend, workers,
            prefetch_depth, history=history_b,
        )
        store.load_population(tag, setup_c.trainers, topology=driver_c.topology)
        history_c = driver_c.run(
            callbacks=observability_callbacks(
                "streaming/resumed", **observability
            )
        )

    # -- report ---------------------------------------------------------------
    report = ExperimentReport(
        experiment="Streaming ingestion",
        description=(
            f"population of {k} trained from a live campaign "
            f"(design={n_design}, {rounds} rounds x {steps_per_round} "
            f"steps, batch {spec.batch_size}, zero pre-staged files); "
            f"resume interrupted at round {half}"
        ),
        columns=[
            "round",
            "universe_size",
            "admitted",
            "evicted",
            "store_evictions",
            "channel_depth",
            "best_val",
        ],
    )
    by_round = {p.get("round"): p for p in ingest_log.polls}
    best_val = history_a.best_val_series()
    for r in range(rounds):
        poll = by_round.get(r, {})
        report.add_row(
            round=r,
            universe_size=poll.get("universe_size", size_at_build),
            admitted=poll.get("admitted", 0),
            evicted=poll.get("evicted", 0),
            store_evictions=poll.get("store_evictions", 0),
            channel_depth=poll.get("depth", 0),
            best_val=best_val[r],
        )

    delta = _history_delta(history_a, history_c)
    report.add_check(
        "resumed history bit-identical to uninterrupted (max |delta|)",
        0.0,
        delta,
        0.0,
        note="checkpoint carries snapshot version + ingestion cursor",
    )
    report.add_check(
        "pairing schedules identical across interrupt",
        1.0,
        float(history_a.pairings == history_c.pairings),
        0.0,
    )
    report.add_check(
        "both runs completed all rounds",
        float(2 * rounds),
        float(history_a.rounds_completed + history_c.rounds_completed),
        0.0,
    )
    grew = setup_a.universe.size > size_at_build
    report.add_check(
        "universe grew during training",
        1.0,
        float(grew),
        0.0,
        note=f"{size_at_build} -> {setup_a.universe.size} samples "
        f"(version {setup_a.universe.version})",
    )
    total_evicted = setup_a.channel.stats.evicted + sum(
        p.get("store_evictions", 0) for p in ingest_log.polls
    )
    report.add_check(
        "eviction pressure observed (channel stale + store LRU)",
        1.0,
        float(total_evicted > 0),
        0.0,
        note=f"channel evicted {setup_a.channel.stats.evicted}, "
        f"store evictions {sum(p.get('store_evictions', 0) for p in ingest_log.polls)}",
    )
    report.notes.append(
        f"ingestion: {prime_polls} priming polls + {rounds} round polls; "
        f"channel cursor {setup_a.channel.cursor}, "
        f"producer lag {setup_a.channel.producer_lag}, "
        f"campaign produced {setup_a.campaign.produced}/{n_design}"
    )
    report.notes.append(
        "checkpoint caught an in-flight epoch plan on: "
        + (", ".join(mid_epoch) if mid_epoch else "none (round landed on "
           "an epoch boundary)")
    )
    for history in (history_a, history_c):
        note_health(report, history)
    return report
