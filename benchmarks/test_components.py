"""Component micro-benchmarks: the real (wall-clock) hot paths.

These are genuine pytest-benchmark measurements of the library's kernels —
useful for tracking performance regressions of the reproduction itself
(the figure benchmarks above measure *simulated* time, not wall time).

The second half probes subsystems the end-to-end benchmark under
``perf/`` does not vary: prefetch depth, the population round on each
execution backend, the barrier-free round, the ingestion beat per
retention policy, and the telemetry bus with and without the live plane.
They share one 512-sample ``small_schema(8)`` dataset at batch 32.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.filesystem import SimulatedFilesystem
from repro.core import (
    EnsembleSpec,
    LtfbConfig,
    LtfbDriver,
    TrainerConfig,
    build_population,
    pretrain_autoencoder,
)
from repro.datastore.bundle import write_bundles
from repro.datastore.pipeline import build_pipeline
from repro.datastore.reader import ArrayReader
from repro.datastore.store import DistributedDataStore
from repro.exec import resolve_backend
from repro.ingest.channel import IngestChannel, StreamedSample
from repro.ingest.universe import SampleUniverse
from repro.jag import JagDatasetConfig, generate_dataset, small_schema
from repro.jag.dataset import JagSchema
from repro.jag.sampling import design_points
from repro.jag.simulator import JagSimulator
from repro.models.autoencoder import MultimodalAutoencoder
from repro.models.cyclegan import ICFSurrogate, SurrogateConfig, small_config
from repro.telemetry import FlightRecorder, LiveAggregator, TelemetryHub
from repro.tensorlib.optimizers import Adam
from repro.utils.rng import RngFactory

SCHEMA = JagSchema(image_size=16)


@pytest.fixture(scope="module")
def surrogate_and_batch():
    rngs = RngFactory(0)
    cfg = SurrogateConfig(schema=SCHEMA)
    ae = MultimodalAutoencoder(
        rngs.child("ae"), SCHEMA, hidden=cfg.ae_hidden, latent_dim=cfg.latent_dim
    )
    surrogate = ICFSurrogate(rngs.child("s"), cfg, ae)
    rng = np.random.default_rng(0)
    batch = {
        "params": rng.random((128, 5)).astype(np.float32),
        "scalars": rng.normal(size=(128, 15)).astype(np.float32),
        "images": rng.random((128, SCHEMA.image_flat_dim)).astype(np.float32),
    }
    return surrogate, ae, batch


def test_bench_gan_train_step(benchmark, surrogate_and_batch):
    surrogate, _, batch = surrogate_and_batch
    d_opt, g_opt = Adam(1e-3), Adam(1e-3)
    benchmark(surrogate.train_step, batch, d_opt, g_opt)


def test_bench_surrogate_inference(benchmark, surrogate_and_batch):
    surrogate, _, batch = surrogate_and_batch
    benchmark(surrogate.predict_outputs, batch["params"])


def test_bench_autoencoder_step(benchmark, surrogate_and_batch):
    _, ae, batch = surrogate_and_batch
    opt = Adam(1e-3)
    benchmark(ae.train_step, batch, opt)


def test_bench_jag_simulate_and_render(benchmark):
    sim = JagSimulator(image_size=16)
    x = design_points(512, 5, method="lattice").astype(np.float32)

    def run():
        state = sim.run(x)
        return sim.render_images(state)

    benchmark(run)


def test_bench_datastore_fetch(benchmark):
    fs = SimulatedFilesystem()
    rng = np.random.default_rng(0)
    fields = {"x": rng.normal(size=(2000, 64)).astype(np.float32)}
    paths = write_bundles(fs, fields, samples_per_bundle=100)
    store = DistributedDataStore(16, 10**8)
    store.preload(fs, paths)
    ids = rng.choice(2000, size=128, replace=False)
    benchmark(store.fetch_batch, ids)


def test_bench_generator_exchange_payload(benchmark, surrogate_and_batch):
    surrogate, _, _ = surrogate_and_batch

    def exchange():
        state = surrogate.get_generator_state()
        surrogate.set_generator_state(state)

    benchmark(exchange)


# -- subsystem probes on the shared 512-sample fixture -----------------------

PROBE_SEED = 2024
PROBE_BATCH = 32


@dataclasses.dataclass
class Probe:
    """What the probes share: the dataset, the pre-trained autoencoder, and
    fresh populations under their own RNG scopes."""

    rngs: RngFactory
    dataset: object
    spec: EnsembleSpec
    autoencoder: object

    @property
    def train_ids(self) -> np.ndarray:
        return np.arange(self.dataset.n_samples)

    def population(self, tag: str, k: int = 2):
        return build_population(
            self.dataset,
            self.train_ids,
            self.rngs.child(f"bench/{tag}"),
            dataclasses.replace(self.spec, k=k),
            self.autoencoder,
        )

    def rng(self, tag: str) -> np.random.Generator:
        return self.rngs.generator(f"bench/{tag}")


@pytest.fixture(scope="module")
def probe() -> Probe:
    rngs = RngFactory(PROBE_SEED)
    dataset = generate_dataset(
        JagDatasetConfig(n_samples=512, schema=small_schema(8), seed=PROBE_SEED)
    )
    spec = EnsembleSpec(
        k=2,
        surrogate=small_config(dataset.schema, batch_size=PROBE_BATCH),
        trainer=TrainerConfig(batch_size=PROBE_BATCH),
        ae_epochs=2,
        ae_max_samples=256,
    )
    train_ids = np.arange(dataset.n_samples)
    autoencoder = pretrain_autoencoder(
        dataset, train_ids, rngs.child("bench-ae"), spec
    )
    return Probe(rngs, dataset, spec, autoencoder)


@pytest.mark.parametrize("depth", [0, 2, 4], ids=lambda d: f"depth{d}")
def test_bench_prefetch_pipeline(benchmark, probe, depth):
    """One epoch through the batch pipeline at each prefetch depth."""
    seeds = probe.rng(f"prefetch-{depth}")

    def epoch() -> None:
        # A fresh reader per call keeps every call's work identical (same
        # epoch index, same planning state) across depths.
        reader = ArrayReader(
            probe.dataset.fields,
            probe.train_ids,
            np.random.default_rng(int(seeds.integers(0, 2**31))),
        )
        pipeline = build_pipeline(reader, PROBE_BATCH, prefetch_depth=depth)
        try:
            for _ in range(reader.steps_per_epoch(PROBE_BATCH)):
                pipeline.next_batch()
        finally:
            pipeline.close()

    benchmark(epoch)


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
def test_bench_population_round(benchmark, probe, backend_name):
    """A k=2 population trains 2 steps under each backend (2 workers)."""
    backend = resolve_backend(
        backend_name, max_workers=None if backend_name == "serial" else 2
    )
    backend.bind(probe.population(f"train-step-{backend_name}"), TelemetryHub())
    counter = iter(range(10**6))
    try:
        benchmark.pedantic(
            lambda: backend.train_round(next(counter), 2),
            rounds=3,
            warmup_rounds=1,
        )
    finally:
        backend.release()


@pytest.mark.parametrize("topology", ["random_pairwise", "async_pairwise"])
def test_bench_ltfb_round_thread(benchmark, probe, topology):
    """One k=4 LTFB round on 2 thread workers, barrier-full vs barrier-free.

    Four trainers over two workers means the barrier round trains two
    waves before any tournament runs; ``async_pairwise`` pairs the first
    wave while the second is still on the pool.
    """
    driver = LtfbDriver(
        probe.population(f"ltfb-async/thread/{topology}", k=4),
        probe.rng(f"ltfb-async-pairing/thread/{topology}"),
        LtfbConfig(steps_per_round=2, rounds=1),
        eval_batch={k: v[:64] for k, v in probe.dataset.fields.items()},
        backend=resolve_backend("thread", max_workers=2),
        topology=topology,
    )

    def one_more_round() -> None:
        # run() resumes from history.rounds_completed.
        driver.config = dataclasses.replace(
            driver.config, rounds=driver.history.rounds_completed + 1
        )
        driver.run()

    benchmark.pedantic(one_more_round, rounds=3, warmup_rounds=1)


@pytest.mark.parametrize("retention", ["recency", "reservoir"])
def test_bench_ingest_channel(benchmark, probe, retention):
    """Stream the dataset through the ingestion beat (publish to the high
    watermark, age out, drain, admit into a universe and an evicting
    store) under each retention policy."""
    fields = probe.dataset.fields
    samples = [
        StreamedSample(
            sample_id=sid,
            fields={k: v[sid] for k, v in fields.items()},
            produced_at=float(sid),  # one simulated second apart
            task_id=sid,
        )
        for sid in range(probe.dataset.n_samples)
    ]
    sample_nbytes = samples[0].nbytes

    def stream() -> None:
        channel = IngestChannel(
            capacity=64,
            retention=retention,
            high_watermark=0.75,
            low_watermark=0.25,
            max_age_s=96.0,
            seed=17,
        )
        universe = SampleUniverse()
        store = DistributedDataStore(
            num_ranks=2,
            bytes_per_rank=sample_nbytes * 128,
            evicting=True,
        )
        it = iter(samples)
        clock = 0.0
        exhausted = False
        while not exhausted or channel.depth:
            while not channel.paused:  # pump to the high watermark
                s = next(it, None)
                if s is None:
                    exhausted = True
                    break
                clock = s.produced_at
                channel.publish(s)
            channel.evict_stale(clock)
            drained = channel.drain()
            universe.admit(drained)
            for s in drained:
                store.admit(s.sample_id, s.fields)
        assert universe.size > 0 and store.stats.evictions > 0

    benchmark(stream)


def _telemetry_stream(rounds: int = 24) -> list[tuple[str, dict]]:
    """A realistic event mix: mostly step_end, with the pipeline, ingest
    and serve traffic a streamed campaign carries."""
    mix: list[tuple[str, dict]] = []
    for r in range(rounds):
        for t in range(4):
            name = f"t{t}"
            for s in range(8):
                mix.append((
                    "step_end",
                    dict(
                        trainer=name, steps=1, steps_done=r * 8 + s + 1,
                        losses={"loss": 1.0 / (r + 1)}, elapsed_s=0.01,
                        backend="serial", worker=0,
                    ),
                ))
            mix.append((
                "fetch_stall",
                dict(trainer=name, stall_s=0.001, overlap_s=0.004, worker=0),
            ))
        mix.append((
            "ingest",
            dict(
                round=r, admitted=8, evicted=2, stale=1, store_evictions=0,
                depth=4, cursor=8 * (r + 1), universe_version=r,
                universe_size=512 + 8 * r, producer_lag=2,
                store_occupancy=0.5, paused=False, channel_occupancy=0.25,
            ),
        ))
        mix.append((
            "serve",
            dict(size=8, queue_depth=3, forward_s=0.002, wait_s=0.001,
                 version=1),
        ))
        mix.append((
            "round_end",
            dict(round=r, train_s=0.32, tournament_s=0.02, exchange_s=0.01),
        ))
    return mix


@pytest.mark.parametrize("plane", ["bare_hub", "live", "live_recorder"])
def test_bench_telemetry_overhead(benchmark, tmp_path, plane):
    """The same pre-built event stream through a bare hub (telemetry off),
    a hub with a LiveAggregator, and one with a FlightRecorder as well.
    ``extra_info["events"]`` over the median is the events/s rate."""
    stream = _telemetry_stream()
    subscribers = {
        "bare_hub": lambda: [],
        "live": lambda: [LiveAggregator()],
        "live_recorder": lambda: [
            LiveAggregator(),
            FlightRecorder(out_dir=tmp_path, dump_on=()),
        ],
    }[plane]

    def dispatch() -> None:
        hub = TelemetryHub()
        for cb in subscribers():
            hub.subscribe(cb)
        for event_type, payload in stream:
            hub.emit(event_type, **payload)

    benchmark.extra_info["events"] = len(stream)
    benchmark(dispatch)
