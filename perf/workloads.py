"""The four workloads: what is built from the seed, what is timed, what is checked.

Every workload drives the public API of the packages under ``src/repro``
with each layer at its default configuration, and returns an
:class:`Outcome`: set-up times, the named end-to-end metrics, operation
counts, output checks, and -- in a traced run -- the per-layer metrics.

Why these four (one line each; the README has the tables):

- ``offline_serial``   compute-bound: the paper's pipeline, bundles ->
  preloaded stores -> shared autoencoder -> k=4 LTFB, serial backend.
- ``offline_process``  the same population and schedule on two worker
  processes: exec transport, dirty re-sync and worker idle are on the
  clock here and nowhere else.
- ``streaming_ingest`` data-plane- and overhead-bound: a live campaign
  feeds a growing universe through evicting stores, small GEMMs, with the
  production observability callbacks attached.
- ``serve_open``       the serving plane: open loop at two rates, closed
  loop capacity, and hot reload under load.

The timed phase is a fixed amount of work derived from ``--seconds`` (a
round count for the training loops, phase lengths for the server), not a
deadline: the outputs of a seed then repeat exactly, and a faster commit
simply finishes sooner.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import multiprocessing
import os
import resource
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.cluster import SimulatedFilesystem
from repro.core import (
    CheckpointStore, EnsembleSpec, LtfbConfig, LtfbDriver, Trainer,
    TrainerConfig, pretrain_autoencoder,
)
from repro.datastore import DistributedDataStore, StoreReader, partition_items
from repro.eval import QualityProbe
from repro.exec import resolve_backend
from repro.experiments.streaming import StreamingSpec, build_streaming_run
from repro.jag import JagDatasetConfig, small_schema
from repro.models import ICFSurrogate, small_config
from repro.serve import ModelRegistry, ServeConfig, SurrogateServer
from repro.telemetry import Callback, LiveAggregator
from repro.utils.rng import RngFactory
from repro.workflow import WorkerPoolSpec, run_campaign

import checks
import layers
import loadgen
from spans import Recorder

__all__ = ["Outcome", "run_workload", "sizes_for"]


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineSizes:
    """``examples/icf_campaign.py`` geometry, shortened to the run budget."""

    samples: int = 4096
    image_size: int = 16
    samples_per_bundle: int = 64
    batch: int = 64
    k: int = 4
    store_ranks: int = 4
    steps_per_round: int = 16
    warmup_rounds: int = 2
    ae_epochs: int = 2
    ae_max_samples: int = 1024
    #: Timed rounds per requested second on the reference host (2 cores,
    #: BLAS pinned to one thread): a serial round takes about 1.9 s there.
    rounds_per_second: float = 0.53
    #: ``time_to_target_s`` is reached when the best global val_loss is at
    #: most this share of its round-0 value.
    target_fraction: float = 0.78
    #: One set-up (campaign, autoencoder, population, two warm-up rounds)
    #: takes ~6 s, so the median is over two.
    setup_repeats: int = 2
    workers: int = 2


@dataclass(frozen=True)
class StreamingSizes:
    """``StreamingSpec`` geometry with the channel opened up so every round
    admits ``tasks_per_poll`` fresh simulations."""

    tasks_per_poll: int = 128
    prime_samples: int = 224
    steps_per_round: int = 4
    warmup_rounds: int = 2
    publish_every: int = 16
    rounds_per_second: float = 11.0
    #: A streamed set-up takes 0.3 s and the first few run cold; nine of
    #: them make a steady median.
    setup_repeats: int = 9


@dataclass(frozen=True)
class ServeSizes:
    population: OfflineSizes = OfflineSizes()
    train_rounds: int = 2
    rate_lo: float = 1000.0
    rate_hi: float = 4000.0
    outstanding: int = 64
    hot_designs: int = 256
    hot_share: float = 0.25
    publishes: int = 10
    warmup_requests: int = 2000
    #: Shares of ``--seconds``: open loop at rate_lo, at rate_hi, closed
    #: loop, open loop at rate_lo under hot reload.  The heavier rate and
    #: the capacity probe carry BENCHMARK.json metrics and get the time.
    phase_shares: tuple[float, float, float, float] = (0.15, 0.3, 0.25, 0.3)
    setup_repeats: int = 2


_TINY_OFFLINE = OfflineSizes(
    samples=512, image_size=8, batch=32, steps_per_round=2, ae_epochs=1,
    ae_max_samples=256, rounds_per_second=4.0, setup_repeats=1,
    target_fraction=1.0,  # two steps a round go nowhere: met in round 0
)

SIZES = {
    "full": {
        "offline_serial": OfflineSizes(),
        "offline_process": OfflineSizes(),
        "streaming_ingest": StreamingSizes(),
        "serve_open": ServeSizes(),
    },
    "tiny": {
        "offline_serial": _TINY_OFFLINE,
        "offline_process": _TINY_OFFLINE,
        "streaming_ingest": StreamingSizes(
            tasks_per_poll=32, prime_samples=64, publish_every=4,
            rounds_per_second=8.0, setup_repeats=1,
        ),
        "serve_open": ServeSizes(
            population=_TINY_OFFLINE, rate_lo=200.0, rate_hi=400.0,
            outstanding=16, hot_designs=32, publishes=3, warmup_requests=50,
            setup_repeats=1,
        ),
    },
}


def sizes_for(workload: str, size: str):
    return SIZES[size][workload]


# ---------------------------------------------------------------------------
# Outcome
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one run of one workload produced."""

    setup_times_s: list[float]
    #: Every end-to-end metric of this workload under its own name
    #: (train_samples_per_s, serve_p99_ms_r4000, ...): name -> (value, unit).
    metrics: dict[str, tuple[float, str]]
    ops: dict[str, dict[str, int]]  # kind -> attempted/ok/refused/...
    checks: list[tuple[str, bool, str]]
    info: dict = field(default_factory=dict)
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    history_sha256: str | None = None
    skipped: tuple[str, ...] = ()  # wall-clock metrics without a number


#: ``BENCHMARK.json``'s ``end_to_end`` names that are one workload's own
#: metric under a shared name (the driver wants one list that every
#: workload reports): name -> (metric, factor) on the three training loops
#: and on the server.  Every other name there (``setup_s``, ``peak_rss_mb``,
#: ``best_val_loss``) is reported under that name by all four.
SHARED = {
    "throughput_per_s": {"train": ("train_samples_per_s", 1.0), "serve": ("serve_capacity_rps", 1.0)},
    "op_p50_ms": {"train": ("round_p50_s", 1e3), "serve": ("serve_p50_ms_r4000", 1.0)},
    "op_tail_ms": {"train": ("round_tail_s", 1e3), "serve": ("serve_p99_ms_r4000", 1.0)},
}


def source_of(name: str, workload: str) -> tuple[str, float]:
    """The metric of ``workload`` (and its factor) behind a ``BENCHMARK.json`` name."""
    kind = "serve" if workload == "serve_open" else "train"
    return SHARED[name][kind] if name in SHARED else (name, 1.0)


def _peak_rss_mb(workers_mb: float = 0.0) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + workers_mb


def _children_hwm_mb() -> float:
    """Summed peak RSS of this process's live children (execution workers)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def history_digest(history) -> str:
    """SHA-256 over every number and name a run's ``History`` recorded
    (losses, eval series, tournaments, pairings, byes, exchange bytes);
    health warnings are timing-dependent and left out."""
    h = hashlib.sha256()

    def feed_rows(rows) -> None:
        for row in rows:
            for trainer in sorted(row):
                h.update(trainer.encode())
                for key in sorted(row[trainer]):
                    h.update(key.encode())
                    h.update(struct.pack("<d", float(row[trainer][key])))

    feed_rows(history.train_losses)
    feed_rows(history.eval_series)
    for t in history.tournaments:
        h.update(f"{t.round_index}|{t.trainer}|{t.partner}|{int(t.adopted_partner)}".encode())
        h.update(struct.pack("<dd", float(t.own_score), float(t.partner_score)))
    h.update(repr(history.pairings).encode())
    h.update(repr(history.byes).encode())
    h.update(str(history.exchange_bytes).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Training loops (offline_serial, offline_process, streaming_ingest)
# ---------------------------------------------------------------------------


def build_offline(seed: int, z: OfflineSizes) -> SimpleNamespace:
    """Campaign -> bundles on the simulated file system -> preloaded
    stores -> shared autoencoder -> k trainers (``examples/icf_campaign``)."""
    rngs = RngFactory(seed)
    fs = SimulatedFilesystem()
    campaign = run_campaign(
        JagDatasetConfig(
            n_samples=z.samples, schema=small_schema(z.image_size), seed=seed
        ),
        fs,
        pool=WorkerPoolSpec(num_workers=64, tasks_per_job=100),
        samples_per_bundle=z.samples_per_bundle,
    )
    dataset = campaign.dataset
    train_ids, val_ids = dataset.train_val_split(0.12, mode="strided")
    val_batch = {k: v[val_ids] for k, v in dataset.fields.items()}
    spec = EnsembleSpec(
        k=z.k,
        surrogate=small_config(dataset.schema, batch_size=z.batch),
        trainer=TrainerConfig(batch_size=z.batch),
        ae_epochs=z.ae_epochs,
        ae_max_samples=z.ae_max_samples,
        hyperparam_jitter=0.25,
    )
    autoencoder = pretrain_autoencoder(dataset, train_ids, rngs, spec)
    tournament_ids = train_ids[:: int(1 / spec.tournament_fraction)]
    tournament_batch = {k: v[tournament_ids] for k, v in dataset.fields.items()}
    held_out = np.concatenate([val_ids, tournament_ids])
    trainers, stores = [], []
    for i, paths in enumerate(partition_items(campaign.bundle_paths, z.k)):
        child = rngs.child(f"trainer{i}")
        store = DistributedDataStore(num_ranks=z.store_ranks, bytes_per_rank=10**9)
        silo_ids = np.concatenate([fs.read_file(p).sample_ids for p in paths])
        reader = StoreReader(
            fs, campaign.bundle_paths, z.samples_per_bundle,
            np.setdiff1d(silo_ids, held_out), child.generator("reader"),
            store, mode="preload",
        )
        surrogate = ICFSurrogate(child, spec.surrogate, autoencoder)
        trainers.append(
            Trainer(f"trainer{i:02d}", surrogate, reader, tournament_batch, spec.trainer)
        )
        stores.append(store)
    return SimpleNamespace(
        rngs=rngs, dataset=dataset, autoencoder=autoencoder, trainers=trainers,
        stores=stores, eval_batch=val_batch, source=None, batch=z.batch,
    )


def build_streaming(seed: int, z: StreamingSizes, total_rounds: int) -> SimpleNamespace:
    """Live campaign -> channel -> universe -> evicting stores -> stream
    readers -> k trainers, via the streaming study's own builder."""
    spec = StreamingSpec(
        seed=seed,
        prime_samples=z.prime_samples,
        tasks_per_poll=z.tasks_per_poll,
        # The pump stops at 75% occupancy, so twice a poll's tasks never
        # pauses it; one poll spans tasks/16 workers x 60 s of simulated
        # time, so the freshness bound must cover that or fresh samples
        # age out before they are drained.
        channel_capacity=2 * z.tasks_per_poll,
        max_age_s=60.0 * z.tasks_per_poll,
        n_design=z.prime_samples + z.tasks_per_poll * (total_rounds + 4),
    )
    run = build_streaming_run(spec)
    return SimpleNamespace(
        rngs=run.rngs, trainers=run.trainers, eval_batch=run.eval_batch,
        source=run.source, universe=run.universe, channel=run.channel,
        stores=[t.reader.store for t in run.trainers], batch=spec.batch_size,
        primed_size=run.universe.size,
    )


def make_driver(built, rounds: int, steps: int, backend=None):
    return LtfbDriver(
        built.trainers,
        built.rngs.generator("pairing"),
        LtfbConfig(steps_per_round=steps, rounds=rounds),
        eval_batch=built.eval_batch,
        backend=backend,
        source=built.source,
    )


class RoundClock:
    """A proxy on ``driver.run_round``: stamps every round, publishes the
    population through a :class:`CheckpointStore`, and opens the timed
    phase when the last warm-up round returns (so one ``driver.run`` --
    one backend bind -- covers warm-up and measurement)."""

    def __init__(
        self, driver, built, store, warmup: int, publish_every: int,
        recorder: Recorder | None, on_start=lambda: None,
    ) -> None:
        if warmup < 1:
            raise ValueError("need at least one warm-up round")
        self.driver, self.built, self.store = driver, built, store
        self.warmup, self.publish_every = warmup, publish_every
        self.recorder, self.on_start = recorder, on_start
        self.last = driver.config.rounds - 1
        self.t_first = self.t_start = 0.0  # round 0 begins; timed phase begins
        self.round_ends: list[float] = []  # every round, warm-up included
        self.publish_s: list[float] = []
        self.checkpoint_bytes = 0
        self.setup_totals: dict = {}
        self.spans: list[list] = []  # snapshot at the end of the timed phase
        self.workers_mb = 0.0
        self._inner = driver.run_round
        driver.run_round = self._run_round

    def _run_round(self, r: int) -> None:
        if r == 0:
            self.t_first = time.perf_counter()
        self._inner(r)
        if r >= self.warmup and (r - self.warmup) % self.publish_every == 0:
            self._publish(f"round{r:05d}")
        self.round_ends.append(time.perf_counter())
        if r == self.last:
            self.workers_mb = _children_hwm_mb()
            if self.recorder is not None:
                self.recorder.end()
                self.spans = self.recorder.snapshot()
        elif r == self.warmup - 1:
            if self.recorder is not None:
                self.setup_totals = Recorder.merged_totals(self.recorder.snapshot())
                self.recorder.clear()
                self.recorder.begin("loop")
            self.on_start()
            self.t_start = time.perf_counter()

    def _publish(self, tag: str) -> None:
        snap = self.driver.history.eval_series[-1]
        winner = min(snap, key=lambda name: snap[name]["val_loss"])
        source = self.built.source
        t0 = time.perf_counter()
        self.store.save_population(
            self.driver.trainers, tag, winner=winner,
            topology=self.driver.topology,
            ingest=source.state() if source is not None else None,
        )
        self.publish_s.append(time.perf_counter() - t0)
        if self.recorder is not None:
            self.checkpoint_bytes += sum(
                p.stat().st_size for p in (self.store.root / tag).iterdir()
            )


class _EventTap(Callback):
    """What the hub delivered during the timed phase of a traced run."""

    def __init__(self) -> None:
        self.counting = False
        self.events = 0
        self.alerts: list[dict] = []
        self.ingest: list[dict] = []
        #: (round, worker) -> seconds its trainers spent in train_steps.
        self.worker_busy: dict[tuple[int, int], float] = {}
        self._round = 0

    def on_event(self, event) -> None:
        if self.counting:
            self.events += 1

    def on_step_end(self, event) -> None:
        p = event.payload
        key = (self._round, int(p["worker"]))
        self.worker_busy[key] = self.worker_busy.get(key, 0.0) + p["elapsed_s"]

    def on_round_end(self, event) -> None:
        self._round = int(event.payload["round"]) + 1

    def on_alert(self, event) -> None:
        if self.counting:
            self.alerts.append(dict(event.payload))

    def on_ingest(self, event) -> None:
        if self.counting:
            self.ingest.append(dict(event.payload))


def _run_training(
    workload: str, seed: int, seconds: float, z, recorder: Recorder | None,
    work_dir: Path,
) -> Outcome:
    streaming = workload == "streaming_ingest"
    process = workload == "offline_process"
    timed_rounds = max(4, round(seconds * z.rounds_per_second))
    total_rounds = z.warmup_rounds + timed_rounds
    publish_every = z.publish_every if streaming else 1
    nproc = os.cpu_count() or 1

    def build():
        if streaming:
            return build_streaming(seed, z, total_rounds)
        return build_offline(seed, z)

    def backend():
        return resolve_backend("process", max_workers=z.workers) if process else None

    def callbacks():
        """The production observability pair (streaming only), as
        ``(span name, callback)`` so a traced run can proxy them."""
        if not streaming:
            return []
        return [("telemetry.live_fold", LiveAggregator()), ("eval.probe", QualityProbe())]

    # -- set-up, several times over; the last one is kept and measured -------
    setup_times: list[float] = []
    for rep in range(z.setup_repeats):
        t0 = time.perf_counter()
        built = build()
        if rep == z.setup_repeats - 1:
            break
        make_driver(built, z.warmup_rounds, z.steps_per_round, backend()).run(
            callbacks=[cb for _, cb in callbacks()]
        )
        setup_times.append(time.perf_counter() - t0)
        del built
        gc.collect()

    driver = make_driver(built, total_rounds, z.steps_per_round, backend())
    cbs = callbacks()
    tap = None
    if recorder is not None:
        layers.proxy_instances(recorder, driver, cbs)
        tap = _EventTap()
    store = CheckpointStore(work_dir / "ckpt")
    before: dict = {}

    def on_start() -> None:
        before.update(_counters(built), exchange_bytes=driver.history.exchange_bytes)
        if tap is not None:
            tap.counting = True

    clock = RoundClock(
        driver, built, store, z.warmup_rounds, publish_every, recorder, on_start
    )
    history = driver.run(
        callbacks=[cb for _, cb in cbs] + ([tap] if tap is not None else [])
    )
    setup_times.append(clock.t_start - t0)
    after = _counters(built)

    # -- end-to-end ----------------------------------------------------------
    loop_wall = clock.round_ends[-1] - clock.t_start
    rounds_s = np.sort(np.diff([clock.t_start] + clock.round_ends[z.warmup_rounds:]))
    consumed = timed_rounds * z.steps_per_round * built.batch * len(built.trainers)
    best = history.best_val_series()
    metrics: dict[str, tuple[float, str]] = {
        "peak_rss_mb": (_peak_rss_mb(clock.workers_mb), "MB"),
        "train_samples_per_s": (consumed / loop_wall, "1/s"),
        "round_p50_s": (float(np.median(rounds_s)), "s"),
        # The round with ten slower ones beyond it; the offline pair times
        # 7 rounds, too few for a percentile, and reports the slowest.
        "round_tail_s": (float(rounds_s[-11 if rounds_s.size > 20 else -1]), "s"),
        "final_val_loss": (float(best[-1]), "loss"),
        "best_val_loss": (float(min(best)), "loss"),
        "publish_ms": (float(np.median(clock.publish_s)) * 1e3, "ms"),
    }
    info = {
        "timed_rounds": timed_rounds,
        "warmup_rounds": z.warmup_rounds,
        "loop_wall_s": loop_wall,
        "samples_consumed": consumed,
        "publishes": len(clock.publish_s),
        "sizes": dataclasses.asdict(z),
    }
    verdicts = [
        checks.history_complete(history, total_rounds, len(built.trainers)),
        checks.published_population_loads(store, driver.trainers),
    ]
    if streaming:
        admitted = built.universe.size - before["universe"]
        metrics["ingest_samples_per_s"] = (admitted / loop_wall, "1/s")
        info["round_p95_s"] = float(np.percentile(rounds_s, 95))
        info["ingest_admitted"] = admitted
        verdicts += checks.streaming_end_state(built, z, total_rounds, driver.trainers, history)
    else:
        # From the start of round 0: the target is relative to round 0's
        # loss, so the warm-up rounds are part of the way there.
        target = z.target_fraction * best[0]
        hit = next((i for i, v in enumerate(best) if v <= target), None)
        metrics["time_to_target_s"] = (
            clock.round_ends[hit] - clock.t_first if hit is not None else float("nan"), "s",
        )
        verdicts.append((
            "target_reached", hit is not None,
            f"best val_loss {min(best):.4f} vs target {target:.4f} "
            f"({z.target_fraction} x round 0), first met in round {hit}",
        ))
    skipped: tuple[str, ...] = ()
    if process:
        if nproc < z.workers:
            skipped = ("train_samples_per_s", "round_p50_s", "round_tail_s", "time_to_target_s")
        # The serial run the process backend must reproduce bit for bit over
        # the warm-up rounds; run last, so that its compute in this process
        # is not in the parent's peak memory read above.
        reference = make_driver(
            build_offline(seed, z), z.warmup_rounds, z.steps_per_round
        ).run()
        verdicts.append(checks.matches_reference(history, reference, z.warmup_rounds))

    steps = total_rounds * z.steps_per_round * len(built.trainers)
    ops = {
        "rounds": _ops(total_rounds, history.rounds_completed),
        "train_steps": _ops(steps, sum(t.steps_done for t in driver.trainers)),
        "publishes": _ops(len(clock.publish_s), len(clock.publish_s)),
    }

    outcome = Outcome(
        setup_times_s=setup_times, metrics=metrics, ops=ops, checks=verdicts,
        info=info, history_sha256=history_digest(history), skipped=skipped,
    )
    if recorder is not None:
        outcome.layer = _training_layer_metrics(
            recorder, clock, tap, before, after, history, z, timed_rounds,
            loop_wall, process,
        )
    return outcome


def _ops(attempted: int, ok: int, refused: int = 0, deadline_missed: int = 0) -> dict[str, int]:
    return {
        "attempted": int(attempted), "ok": int(ok), "refused": int(refused),
        "deadline_missed": int(deadline_missed),
        "failed": int(attempted - ok - refused - deadline_missed),
    }


def _counters(built) -> dict:
    """Public counters of the data plane, read before and after the timed
    phase (their difference is what the phase did)."""
    stats = [s.stats for s in built.stores]
    return {
        "fetches": sum(s.total_fetches for s in stats),
        "remote_bytes": sum(s.remote_bytes for s in stats),
        "evictions": sum(s.evictions for s in stats),
        "universe": built.universe.size if built.source is not None else 0,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def _budget(snapshot: list[list]) -> dict[str, tuple[float, str]]:
    """Self seconds per layer on the thread that owns the ``loop`` span,
    plus what is left over: the rows add up to ``trace.loop_wall_s``."""
    root = next(spans for spans in snapshot if spans and spans[0][0] == "loop")
    totals = Recorder.totals(root)
    out = {f"{layer}.self_s": (0.0, "s") for layer in layers.LAYERS}
    for name, row in totals.items():
        if name == "loop":
            continue
        key = f"{layers.layer_of(name)}.self_s"
        out[key] = (out[key][0] + row.self_s, "s")
    wall = totals["loop"].total_s
    out["trace.loop_wall_s"] = (wall, "s")
    out["trace.unattributed_s"] = (totals["loop"].self_s, "s")
    out["trace.unattributed_share"] = (totals["loop"].self_s / wall, "ratio")
    return out


def _span_cost_s(calls: int = 20000) -> float:
    """What one proxied call costs, measured on a no-op."""
    probe = Recorder().wrap("probe", lambda: None)
    bare = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        probe()
    t1 = time.perf_counter()
    for _ in range(calls):
        bare()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def _overhead(snapshot: list[list], wall: float) -> dict[str, tuple[float, str]]:
    """Tracing overhead as spans recorded x the measured cost of one proxy,
    over the loop wall; ``repeat.py`` also reports the measured
    traced/untraced ratio of paired runs."""
    spans = sum(len(s) for s in snapshot)
    return {
        "trace.spans": (float(spans), "count"),
        "trace.overhead_share": (spans * _span_cost_s() / wall, "ratio"),
    }


def _training_layer_metrics(
    recorder, clock, tap, before, after, history, z, timed_rounds, loop_wall, process,
) -> dict[str, tuple[float, str]]:
    T = Recorder.merged_totals(clock.spans)
    S = clock.setup_totals

    def total(name, src=T):
        return src[name].total_s if name in src else 0.0

    def self_(name):
        return T[name].self_s if name in T else 0.0

    def calls(name):
        return T[name].calls if name in T else 0

    m: dict[str, tuple[float, str]] = _budget(clock.spans)
    m.update(_overhead(clock.spans, loop_wall))
    sec = lambda v: (float(v), "s")  # noqa: E731
    cnt = lambda v: (float(v), "count")  # noqa: E731
    m["tensorlib.forward_s"] = sec(self_("tensorlib.forward"))
    m["tensorlib.backward_s"] = sec(self_("tensorlib.backward"))
    m["tensorlib.optimizer_s"] = sec(self_("tensorlib.optimizer"))
    m["tensorlib.predict_s"] = sec(total("tensorlib.predict"))
    m["tensorlib.forward_calls"] = cnt(calls("tensorlib.forward") + calls("tensorlib.predict"))
    m["models.encode_s"] = sec(total("models.encode"))
    m["models.train_step_self_s"] = sec(self_("models.train_step"))
    m["models.evaluate_s"] = sec(total("models.evaluate"))
    m["datastore.plan_s"] = sec(self_("datastore.plan"))
    m["datastore.materialize_s"] = sec(self_("datastore.materialize"))
    m["datastore.store_fetch_s"] = sec(self_("datastore.store_fetch"))
    m["datastore.store_admit_s"] = sec(self_("datastore.store_admit"))
    requested = calls("datastore.materialize") * clock.built.batch
    fetched = after["fetches"] - before["fetches"]
    m["datastore.store_hit_ratio"] = (fetched / requested if requested else 0.0, "ratio")
    m["datastore.store_evictions"] = cnt(after["evictions"] - before["evictions"])
    m["datastore.exchange_bytes"] = (float(after["remote_bytes"] - before["remote_bytes"]), "B")
    m["datastore.batches"] = cnt(calls("datastore.materialize"))
    train_phase = total("core.train_phase") + total("exec.train_round")
    m["core.train_phase_s"] = sec(train_phase)
    m["core.step_data_wait_s"] = sec(total("core.train_interval") - total("models.train_step"))
    m["core.tournament_s"] = sec(total("core.tournament") - total("core.exchange"))
    m["core.exchange_s"] = sec(total("core.exchange"))
    m["core.eval_phase_s"] = sec(total("core.eval_phase"))
    m["core.checkpoint_save_s"] = sec(total("core.checkpoint_save"))
    m["core.checkpoint_bytes"] = (float(clock.checkpoint_bytes), "B")
    timed = [t for t in history.tournaments if t.round_index >= z.warmup_rounds]
    m["core.exchange_bytes"] = (float(history.exchange_bytes - before["exchange_bytes"]), "B")
    m["core.adoptions"] = cnt(sum(t.adopted_partner for t in timed))
    m["core.round_residual_s"] = sec(self_("core.run_round"))
    m["exec.bind_s"] = sec(total("exec.bind", S))
    m["exec.train_round_s"] = sec(total("exec.train_round"))
    m["exec.state_capture_s"] = sec(total("exec.state"))
    m["exec.state_bytes_per_round"] = (recorder.counters["exec.state_bytes"] / timed_rounds, "B")
    idle = 0.0
    if process and tap is not None and train_phase > 0:
        busiest = sum(
            max(v for (r, _), v in tap.worker_busy.items() if r == rnd)
            for rnd in range(z.warmup_rounds, z.warmup_rounds + timed_rounds)
        )
        idle = max(0.0, 1.0 - busiest / train_phase)
    m["exec.worker_idle_share"] = (idle, "ratio")
    m["jag.simulate_s"] = sec(total("jag.simulate"))
    m["jag.samples"] = cnt(calls("jag.simulate"))
    m["workflow.iter_results_self_s"] = sec(self_("workflow.iter_results"))
    m["ingest.poll_self_s"] = sec(sum(
        self_(n) for n in ("ingest.poll", "ingest.pump", "ingest.universe_admit", "ingest.reader_admit")
    ))
    polls = tap.ingest if tap is not None else []
    admitted = sum(p["admitted"] for p in polls)
    m["ingest.admitted"] = cnt(admitted)
    m["ingest.dropped_stale"] = cnt(sum(p["stale"] for p in polls))
    m["ingest.channel_occupancy_mean"] = (
        float(np.mean([p["channel_occupancy"] for p in polls])) if polls else 0.0, "ratio",
    )
    consumed = timed_rounds * z.steps_per_round * clock.built.batch * len(clock.built.trainers)
    m["ingest.keepup_ratio"] = (admitted / consumed, "ratio")
    m["telemetry.events"] = cnt(tap.events if tap is not None else 0)
    m["telemetry.live_fold_s"] = sec(total("telemetry.live_fold"))
    m["telemetry.alerts"] = cnt(len(tap.alerts) if tap is not None else 0)
    m["eval.probe_s"] = sec(total("eval.probe"))
    return m


# ---------------------------------------------------------------------------
# serve_open
# ---------------------------------------------------------------------------


def _build_serving(seed: int, z: ServeSizes, root: Path) -> SimpleNamespace:
    """Train the offline population for two rounds, publish it, serve it."""
    built = build_offline(seed, z.population)
    driver = make_driver(built, z.train_rounds, z.population.steps_per_round)
    history = driver.run()
    store = CheckpointStore(root)
    store.save_autoencoder(built.autoencoder)
    snap = history.eval_series[-1]
    winner = min(snap, key=lambda name: snap[name]["val_loss"])
    store.save_population(built.trainers, "trained", winner=winner)
    registry = ModelRegistry(store)
    server = SurrogateServer(registry, ServeConfig())
    server.start()
    return SimpleNamespace(
        built=built, store=store, registry=registry, server=server,
        models={registry.current().version: registry.current()},
        best_val_loss=float(min(history.best_val_series())),
    )


def _request_rows(rng: np.random.Generator, n: int, hot: np.ndarray, hot_share: float, n_params: int) -> np.ndarray:
    """``hot_share`` of the requests re-ask one of the hot designs (they fit
    the default response cache); the rest are unique."""
    rows = rng.random((n, n_params), dtype=np.float32)
    repeat = rng.random(n) < hot_share
    rows[repeat] = hot[rng.integers(0, len(hot), int(repeat.sum()))]
    return rows


def _poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    n = int(rate * seconds)
    return np.cumsum(rng.exponential(1.0 / rate, n))


def _run_serving(
    seed: int, seconds: float, z: ServeSizes, recorder: Recorder | None, work_dir: Path,
) -> Outcome:
    rng = np.random.default_rng([seed, 0x5E12])
    setup_times: list[float] = []
    for rep in range(z.setup_repeats):
        t0 = time.perf_counter()
        s = _build_serving(seed, z, work_dir / f"store{rep}")
        schema = s.built.dataset.schema
        shapes = ((schema.n_scalars,), (schema.image_flat_dim,))
        hot = rng.random((z.hot_designs, schema.n_params), dtype=np.float32)
        # Warm-up: first forwards, cache fill of some hot designs, lazy
        # decoder load.  Closed loop so it takes the same work every time.
        warm = loadgen.closed_loop(
            s.server, "warmup",
            _request_rows(rng, z.warmup_requests, hot, z.hot_share, schema.n_params),
            seconds=60.0, outstanding=8, shapes=shapes,
        )
        setup_times.append(time.perf_counter() - t0)
        if rep < z.setup_repeats - 1:
            s.server.stop()
            del s
            gc.collect()
    server, registry = s.server, s.registry
    stats0 = server.stats()
    setup_spans: list[list] = []
    if recorder is not None:
        setup_spans = recorder.snapshot()
        recorder.clear()
        recorder.begin("loop")
    t_loop = time.perf_counter()

    sec_lo, sec_hi, sec_cap, sec_reload = (share * seconds for share in z.phase_shares)
    n_params = schema.n_params

    def open_phase(name: str, rate: float, secs: float) -> loadgen.PhaseResult:
        offsets = _poisson_offsets(rng, rate, secs)
        rows = _request_rows(rng, len(offsets), hot, z.hot_share, n_params)
        return loadgen.open_loop(server, name, rows, offsets, shapes, recorder=recorder)

    phases = [open_phase("r1000", z.rate_lo, sec_lo), open_phase("r4000", z.rate_hi, sec_hi)]
    cap_rows = _request_rows(
        rng, int(sec_cap * 40000) + z.outstanding, hot, z.hot_share, n_params
    )
    phases.append(loadgen.closed_loop(
        server, "capacity", cap_rows, sec_cap, z.outstanding, shapes, recorder=recorder,
    ))

    # Hot reload under load: a publisher thread saves the population under
    # a fresh tag with the next member as winner, then refreshes.
    publishes: list[tuple[float, int, float]] = []  # (t0, version, refresh_s)
    stop = threading.Event()
    names = [t.name for t in s.built.trainers]
    interval = sec_reload / (z.publishes + 1)
    t_reload = time.perf_counter()

    def publisher() -> None:
        for j in range(z.publishes):
            # Absolute schedule: a slow publish does not push the rest out
            # of the phase.
            if stop.wait(max(0.0, t_reload + (j + 1) * interval - time.perf_counter())):
                return
            t0 = time.perf_counter()
            s.store.save_population(
                s.built.trainers, f"reload{j:03d}", winner=names[j % len(names)]
            )
            t1 = time.perf_counter()
            model = registry.refresh()
            if model is not None:
                s.models[model.version] = model
                publishes.append((t0, model.version, time.perf_counter() - t1))

    thread = threading.Thread(target=publisher, name="perf-publisher")
    thread.start()
    try:
        phases.append(open_phase("reload", z.rate_lo, sec_reload))
    finally:
        stop.set()
        thread.join()
    loop_wall = time.perf_counter() - t_loop
    timed_spans: list[list] = []
    if recorder is not None:
        recorder.end()
        timed_spans = recorder.snapshot()
    stats1 = server.stats()
    server.stop()

    by_name = {p.name: p for p in phases}
    metrics: dict[str, tuple[float, str]] = {
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        # Of the population being served, after its two set-up rounds.
        "best_val_loss": (s.best_val_loss, "loss"),
    }
    info: dict = {"loop_wall_s": loop_wall, "sizes": dataclasses.asdict(z), "phases": {}}
    for phase, rate in (("r1000", z.rate_lo), ("r4000", z.rate_hi)):
        p = by_name[phase]
        for q in (50, 99):
            value, windows = loadgen.window_percentile(
                p.due, p.latency_ms(), q, loadgen.WINDOW_REQUESTS / rate
            )
            metrics[f"serve_p{q}_ms_{phase}"] = (value, "ms")
            info["phases"][phase] = {"windows": windows}
    cap = by_name["capacity"]
    # Responses per second, as the median over half-second windows: a
    # scheduling hiccup of the shared host costs one window, not the run.
    answered = cap.done[np.isfinite(cap.done)] - cap.due[0]
    per_window = np.histogram(answered, bins=np.arange(0.0, cap.wall_s + 1e-9, 0.5))[0]
    info["capacity_windows_rps"] = (per_window / 0.5).tolist()
    info["capacity_mean_rps"] = cap.ok / cap.wall_s
    metrics["serve_capacity_rps"] = (
        float(np.median(per_window)) / 0.5 if per_window.size else cap.ok / cap.wall_s,
        "1/s",
    )
    reload_phase = by_name["reload"]
    lags = []
    for t0, version, _ in publishes:
        seen = reload_phase.done[reload_phase.version == version]
        if seen.size:
            lags.append((float(np.nanmin(seen)) - t0) * 1e3)
    metrics["publish_to_serve_ms"] = (float(np.median(lags)) if lags else float("nan"), "ms")
    for p in phases:
        late = p.late_ms()
        info["phases"].setdefault(p.name, {}).update(
            requests=p.attempted, wall_s=p.wall_s,
            generator_late_ms_p99=float(np.percentile(late, 99)),
            cached_share=float(p.cached.mean()), refusals_retried=p.retried,
        )
    info["publishes_seen"] = len(lags)
    info["publish_lags_ms"] = lags
    info["reload_p99_ms_r1000"] = loadgen.window_percentile(
        reload_phase.due, reload_phase.latency_ms(), 99, loadgen.WINDOW_REQUESTS / z.rate_lo
    )[0]

    ops = {"warmup_requests": _ops(warm.attempted, warm.attempted - warm.failed - warm.deadline_missed)}
    for p in phases:
        answered = p.attempted - p.refused - p.deadline_missed - p.failed
        ops[f"requests_{p.name}"] = _ops(p.attempted, answered, p.refused, p.deadline_missed)
    ops["publishes"] = _ops(z.publishes, len(publishes))

    verdicts = checks.serving_outputs(phases, s.models, publishes, z.publishes)
    outcome = Outcome(
        setup_times_s=setup_times, metrics=metrics, ops=ops, checks=verdicts, info=info,
    )
    if recorder is not None:
        outcome.layer = _serving_layer_metrics(
            timed_spans, setup_spans, phases, publishes, stats0, stats1, loop_wall
        )
    return outcome


def _named(snapshot: list[list], name: str) -> list:
    return [s for spans in snapshot for s in spans if s[0] == name and s[2] > 0.0]


def _serving_layer_metrics(timed, setup, phases, publishes, stats0, stats1, loop_wall):
    T = Recorder.merged_totals(timed)
    m: dict[str, tuple[float, str]] = _budget(timed)
    m.update(_overhead(timed, loop_wall))
    forwards = sorted(_named(timed, "serve.forward"), key=lambda s: s[2])
    f_t0 = np.array([s[1] for s in forwards])
    f_t1 = np.array([s[2] for s in forwards])
    m["serve.forward_ms_p50"] = (float(np.median(f_t1 - f_t0)) * 1e3 if forwards else 0.0, "ms")
    # Queue wait: from a request's due time to the start of the forward
    # that answered it (the last forward finished before its completion).
    waits, cached_ms, late = [], [], []
    for p in phases:
        if p.name == "capacity":
            continue
        done_ok = np.isfinite(p.done)
        miss = done_ok & ~p.cached
        idx = np.searchsorted(f_t1, p.done[miss], side="right") - 1
        ok = idx >= 0
        waits.append(np.maximum(0.0, f_t0[idx[ok]] - p.due[miss][ok]) * 1e3)
        cached_ms.append((p.done - p.due)[done_ok & p.cached] * 1e3)
        late.append(p.late_ms())
    cat = lambda parts: np.concatenate(parts) if parts else np.zeros(0)  # noqa: E731
    med = lambda a: float(np.median(a)) if a.size else 0.0  # noqa: E731
    m["serve.queue_wait_ms_p50"] = (med(cat(waits)), "ms")
    m["serve.cached_ms_p50"] = (med(cat(cached_ms)), "ms")
    m["serve.generator_late_ms_p99"] = (float(np.percentile(cat(late), 99)), "ms")
    batches = stats1["batches"] - stats0["batches"]
    cache0, cache1 = stats0["cache"], stats1["cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    m["serve.batches"] = (float(batches), "count")
    m["serve.batch_size_mean"] = (
        (stats1["responses"] - stats0["responses"] - hits) / batches if batches else 0.0, "count",
    )
    m["serve.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    setup_loads = _named(setup, "serve.registry_load")
    m["serve.registry_load_ms"] = (
        float(np.median([s[2] - s[1] for s in setup_loads])) * 1e3 if setup_loads else 0.0, "ms",
    )
    m["serve.reload_ms_p50"] = (
        float(np.median([r for _, _, r in publishes])) * 1e3 if publishes else 0.0, "ms",
    )
    m["serve.refused"] = (float(sum(p.refused + p.retried for p in phases)), "count")
    m["serve.deadline_missed"] = (float(sum(p.deadline_missed for p in phases)), "count")
    busy = sum(s[2] - s[1] for s in forwards)
    m["serve.batcher_busy_share"] = (busy / loop_wall, "ratio")
    m["tensorlib.predict_s"] = (T["tensorlib.predict"].total_s if "tensorlib.predict" in T else 0.0, "s")
    m["tensorlib.forward_s"] = (T["tensorlib.forward"].self_s if "tensorlib.forward" in T else 0.0, "s")
    m["tensorlib.forward_calls"] = (
        float(sum(T[n].calls for n in ("tensorlib.predict", "tensorlib.forward") if n in T)), "count",
    )
    m["core.checkpoint_save_s"] = (T["core.checkpoint_save"].total_s if "core.checkpoint_save" in T else 0.0, "s")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(
    workload: str, seed: int, seconds: float, size: str, recorder: Recorder | None,
    work_dir: Path,
) -> Outcome:
    z = sizes_for(workload, size)
    if workload == "serve_open":
        return _run_serving(seed, seconds, z, recorder, work_dir)
    return _run_training(workload, seed, seconds, z, recorder, work_dir)
