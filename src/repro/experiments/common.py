"""Shared experiment infrastructure: reports, shape checks, fixtures.

An :class:`ExperimentReport` is the uniform product of every experiment:
ordered rows (the figure's series), headline *shape checks* comparing our
measured values against what the paper reports, and a plain-text renderer
the benchmarks print and archive.  Shape checks carry a tolerance because
the goal of the reproduction is the behaviour — who wins, by roughly what
factor, where crossovers fall — not the authors' absolute testbed numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.ensemble import EnsembleSpec, build_population, pretrain_autoencoder
from repro.jag.dataset import JagDataset, JagDatasetConfig, generate_dataset
from repro.models.autoencoder import MultimodalAutoencoder
from repro.utils.rng import RngFactory

__all__ = [
    "Row",
    "ShapeCheck",
    "ExperimentReport",
    "QualityWorkbench",
    "note_health",
    "observability_callbacks",
    "add_runtime_options",
    "add_serve_options",
    "serve_config_from_args",
]


def add_runtime_options(parser, seed_default: int = 2019) -> None:
    """Register the runtime flags every repro CLI shares.

    One definition for ``--quick``/``--seed``/``--backend``/``--workers``/
    ``--prefetch-depth``/``--trace-out``/``--metrics-out``/
    ``--checkpoint-dir`` — the experiments runner, the serve CLI, and any
    future entry point call this instead of re-declaring the boilerplate
    (and silently drifting on defaults or help text).
    """
    parser.add_argument(
        "--quick",
        action="store_true",
        help="miniature runs (structure only, minutes -> seconds)",
    )
    parser.add_argument("--seed", type=int, default=seed_default)
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="serial",
        help="execution backend for training runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker cap for parallel backends (default: one per CPU)",
    )
    parser.add_argument(
        "--prefetch-depth",
        type=int,
        default=None,
        help=(
            "data-pipeline prefetch depth for training runs (default: "
            "trainer-configured; 0 = synchronous). Results are "
            "bit-identical at any depth."
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="BASE.jsonl",
        help=(
            "write a span-enabled JSONL telemetry trace per run (run tag "
            "folded into the filename); summarize with trace-report, "
            "convert with trace-export"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the session's accumulated metrics registry on exit "
            "(Prometheus text for .prom/.txt, JSON otherwise)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "CheckpointStore root: training runs publish their population "
            "and tournament winner here; the serve CLI loads from it"
        ),
    )
    parser.add_argument(
        "--flight-recorder",
        nargs="?",
        const="flightrec",
        default=None,
        metavar="DIR",
        help=(
            "attach a flight recorder to every training run: a bounded "
            "ring of recent events per subsystem, dumped to DIR (default "
            "flightrec/) as a JSON post-mortem bundle on crash, critical "
            "alert, or SIGTERM"
        ),
    )


def add_serve_options(parser) -> None:
    """Register the ``--serve-*`` policy flags (defined once, here).

    Maps one-to-one onto :class:`repro.serve.ServeConfig`; build the
    config with :func:`serve_config_from_args`.
    """
    group = parser.add_argument_group("serving policy")
    group.add_argument(
        "--serve-max-batch",
        type=int,
        default=32,
        help="micro-batch rows per forward pass (the fixed GEMM shape)",
    )
    group.add_argument(
        "--serve-max-delay-ms",
        type=float,
        default=2.0,
        help="longest a request waits for batch company (milliseconds)",
    )
    group.add_argument(
        "--serve-queue-depth",
        type=int,
        default=256,
        help="admission queue bound; beyond it requests are rejected",
    )
    group.add_argument(
        "--serve-deadline-ms",
        type=float,
        default=None,
        help="default per-request queueing deadline (milliseconds)",
    )
    group.add_argument(
        "--serve-cache-size",
        type=int,
        default=1024,
        help="LRU response-cache capacity (0 disables caching)",
    )
    group.add_argument(
        "--serve-cache-quantum",
        type=float,
        default=1e-6,
        help="input quantization grid for cache keys (0 = exact match)",
    )
    group.add_argument(
        "--serve-aggregate",
        choices=["winner", "mean", "median"],
        default="winner",
        help="ensemble aggregation across population members",
    )
    group.add_argument(
        "--serve-reload-poll-s",
        type=float,
        default=None,
        help="poll the checkpoint store for newer winners every N seconds",
    )


def serve_config_from_args(args):
    """A :class:`repro.serve.ServeConfig` from parsed ``--serve-*`` flags."""
    from repro.serve import ServeConfig

    return ServeConfig(
        max_batch=args.serve_max_batch,
        max_delay_s=args.serve_max_delay_ms / 1e3,
        max_queue=args.serve_queue_depth,
        default_deadline_s=(
            None
            if args.serve_deadline_ms is None
            else args.serve_deadline_ms / 1e3
        ),
        cache_size=args.serve_cache_size,
        cache_quantum=args.serve_cache_quantum,
        aggregate_mode=args.serve_aggregate,
        reload_poll_s=args.serve_reload_poll_s,
    )

Row = Mapping[str, object]


@dataclass
class ShapeCheck:
    """One headline comparison against the paper."""

    name: str
    paper_value: float
    measured_value: float
    rel_tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        if math.isnan(self.measured_value):
            return False
        if self.paper_value == 0:
            return abs(self.measured_value) <= self.rel_tolerance
        rel = abs(self.measured_value - self.paper_value) / abs(self.paper_value)
        return rel <= self.rel_tolerance

    def render(self) -> str:
        status = "ok " if self.passed else "DIVERGES"
        return (
            f"  [{status}] {self.name}: paper={self.paper_value:g} "
            f"measured={self.measured_value:.4g} "
            f"(tol {self.rel_tolerance:.0%}){'  # ' + self.note if self.note else ''}"
        )


@dataclass
class ExperimentReport:
    """Rows + shape checks + provenance for one figure."""

    experiment: str
    description: str
    columns: Sequence[str]
    rows: list[Row] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append(values)

    def add_check(
        self,
        name: str,
        paper: float,
        measured: float,
        tol: float,
        note: str = "",
    ) -> None:
        self.checks.append(ShapeCheck(name, paper, measured, tol, note))

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]

    def render(self) -> str:
        """Plain-text report: header, table, shape checks, notes."""
        out = [f"== {self.experiment}: {self.description} =="]
        widths = {
            c: max(len(c), *(len(_fmt(r[c])) for r in self.rows)) if self.rows else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        out.append(header)
        out.append("-" * len(header))
        for r in self.rows:
            out.append("  ".join(_fmt(r[c]).ljust(widths[c]) for c in self.columns))
        if self.checks:
            out.append("shape checks vs paper:")
            out.extend(c.render() for c in self.checks)
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def note_health(report: ExperimentReport, history) -> None:
    """Fold a run's health verdict (``History.health_warnings``) into a
    report's notes (one note per warning; silent for healthy runs)."""
    for w in getattr(history, "health_warnings", ()):
        report.notes.append(f"health: {w.render()}")


def observability_callbacks(
    tag: str,
    trace_out: "str | Path | None" = None,
    metrics=None,
    monitor_health: bool = False,
    trace_files: "list[Path] | None" = None,
    sample_resources: bool = True,
    flight_recorder: "str | Path | None" = None,
) -> list:
    """Build the per-run observability callback set experiments share.

    ``trace_out`` is the *base* trace path; each run gets its own file
    with the sanitized ``tag`` folded into the stem (one JSONL trace per
    training run, spans enabled).  ``metrics`` is a shared
    :class:`~repro.telemetry.MetricsCollector` accumulating across every
    run of a session.  ``monitor_health`` attaches a fresh
    :class:`~repro.telemetry.LiveAggregator` — the one run-health
    callback — so alerts land in the run's
    :class:`~repro.core.driver.History` as they fire and in the trace as
    ``alert`` events (watch with ``python -m repro.telemetry watch``).
    ``sample_resources`` attaches a
    :class:`~repro.telemetry.ResourceSampler` whenever a trace or metrics
    consumer is configured, so peak-RSS/CPU readings land in the trace
    (``trace-report`` resources section, Perfetto counter tracks) and the
    metrics gauges.  Opened trace paths are appended to ``trace_files``
    when given, so callers can report what they wrote.

    ``flight_recorder`` (a directory) attaches a fresh
    :class:`~repro.telemetry.FlightRecorder` that dumps a post-mortem
    bundle there on crash/critical alert/SIGTERM.
    """
    from repro.telemetry import (
        FlightRecorder,
        JsonlTraceWriter,
        LiveAggregator,
        ResourceSampler,
    )

    callbacks: list = []
    if trace_out is not None:
        base = Path(trace_out)
        safe = re.sub(r"[^A-Za-z0-9._-]+", "-", tag).strip("-")
        path = base.with_name(
            f"{base.stem}-{safe}{base.suffix or '.jsonl'}"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        callbacks.append(
            JsonlTraceWriter(path, metadata={"tag": tag}, spans=True)
        )
        if trace_files is not None:
            trace_files.append(path)
    if metrics is not None:
        callbacks.append(metrics)
    if monitor_health:
        callbacks.append(LiveAggregator())
    if sample_resources and (trace_out is not None or metrics is not None):
        callbacks.append(ResourceSampler())
    if flight_recorder is not None:
        callbacks.append(FlightRecorder(out_dir=flight_recorder))
    return callbacks


class QualityWorkbench:
    """Shared setup for the real-training experiments (Figs. 7, 8, 12, 13):
    one dataset, one train/val split, one pre-trained autoencoder.

    Building this is the expensive part of the quality experiments, so the
    benchmarks construct it once per session and pass it into several
    ``run(...)`` calls.
    """

    def __init__(
        self,
        seed: int = 2019,
        n_samples: int = 4096,
        val_fraction: float = 0.12,
        spec: EnsembleSpec | None = None,
        dataset_order: str = "design",
        max_val_samples: int = 2048,
        backend: str = "serial",
        workers: int | None = None,
        prefetch_depth: int | None = None,
        trace_out: "str | Path | None" = None,
        metrics=None,
        monitor_health: bool = True,
        trace_files: "list[Path] | None" = None,
        checkpoint_dir: "str | Path | None" = None,
        flight_recorder: "str | Path | None" = None,
    ) -> None:
        self.seed = seed
        self.rngs = RngFactory(seed)
        self.base_spec = spec or EnsembleSpec()
        # Execution backend and data-pipeline depth for every LTFB run the
        # workbench launches; results are bit-identical across backends and
        # depths so figures don't care, only wall clock does.
        self.backend = backend
        self.workers = workers
        self.prefetch_depth = prefetch_depth
        # Observability: when trace_out is set, every training run the
        # workbench hosts writes its own span-enabled JSONL trace (tag
        # folded into the filename); metrics is a shared
        # MetricsCollector; monitor_health attaches a LiveAggregator per
        # run so History.health_warnings is populated as alerts fire.
        self.trace_out = trace_out
        self.metrics = metrics
        self.monitor_health = bool(monitor_health)
        # Each run gets a fresh FlightRecorder dumping post-mortem
        # bundles under `flight_recorder`, when set.
        self.flight_recorder = flight_recorder
        # Callers may hand in a shared list to collect trace paths across
        # several workbenches/reports (the CLI does).
        self.trace_files: list[Path] = (
            trace_files if trace_files is not None else []
        )
        # When set, every LTFB run publishes its trained population (and
        # the frozen autoencoder, once) into a CheckpointStore, winner
        # recorded — the hand-off point to `repro.serve`.
        self.store = None
        if checkpoint_dir is not None:
            from repro.core.checkpoint import CheckpointStore

            self.store = CheckpointStore(checkpoint_dir)
        # Memoized LTFB runs, keyed by (tag, schedule) — see train_ltfb.
        self._ltfb_cache: dict[tuple, object] = {}
        # The campaign enumeration order: "design" (low-discrepancy, the
        # spectral design's natural order => near-IID silos) by default;
        # "sweep" gives the drive-band-ordered, strongly non-IID silos
        # used by the ordering ablation.
        self.dataset: JagDataset = generate_dataset(
            JagDatasetConfig(
                n_samples=n_samples,
                seed=seed,
                schema=self.base_spec.surrogate.schema,
                order=dataset_order,
            )
        )
        self.train_ids, self.val_ids = self.dataset.train_val_split(
            val_fraction, mode="strided"
        )
        # Evaluation happens every round for every trainer; cap the batch
        # so big-population experiments are not eval-bound.  Subsample by
        # STRIDE, never by prefix: under sweep ordering a prefix of the
        # (ascending) validation ids is a biased low-drive slice, which
        # would systematically favour low-band silo specialists.
        if self.val_ids.size > max_val_samples:
            stride = -(-self.val_ids.size // max_val_samples)
            self.val_ids = self.val_ids[::stride]
        self.val_batch = {
            k: v[self.val_ids] for k, v in self.dataset.fields.items()
        }
        self.autoencoder: MultimodalAutoencoder = pretrain_autoencoder(
            self.dataset, self.train_ids, self.rngs, self.base_spec
        )

    def population(self, k: int, tag: str, **spec_overrides):
        """Build a fresh k-trainer population under a distinct RNG scope."""
        import dataclasses

        spec = dataclasses.replace(self.base_spec, k=k, **spec_overrides)
        return build_population(
            self.dataset,
            self.train_ids,
            self.rngs.child(f"{tag}/k{k}"),
            spec,
            self.autoencoder,
        )

    def pairing_rng(self, tag: str) -> np.random.Generator:
        return self.rngs.generator(f"{tag}/pairing")

    def run_callbacks(self, tag: str) -> list:
        """Observability callbacks for one training run under ``tag``
        (trace writer, shared metrics collector, health callback — each
        only when configured; see :func:`observability_callbacks`)."""
        return observability_callbacks(
            tag,
            trace_out=self.trace_out,
            metrics=self.metrics,
            monitor_health=self.monitor_health,
            trace_files=self.trace_files,
            flight_recorder=self.flight_recorder,
        )

    def train_ltfb(
        self,
        tag: str,
        k: int = 4,
        rounds: int = 10,
        steps_per_round: int = 40,
        hyperparam_jitter: float = 0.2,
        topology: str | None = None,
        callbacks=(),
    ):
        """Run (and memoize) one LTFB training under ``tag``.

        Figures that analyse the *same* trained surrogate (7 and 8) share
        a run by passing the same tag/schedule.  Returns the finished
        :class:`~repro.core.ltfb.LtfbDriver`.

        ``callbacks`` (e.g. a
        :class:`~repro.telemetry.JsonlTraceWriter`) are attached only on
        the run that populates the cache; on a cache hit they are
        **silently dropped** — the training already happened, so there is
        no event stream left to observe.  Callers that need a trace must
        use a fresh tag (or a fresh workbench).  The workbench's own
        observability callbacks (:meth:`run_callbacks`) are attached the
        same way, on the populating run only.

        The run executes under the workbench's configured execution
        backend (``backend``/``workers``); the backend is part of the memo
        key only through the workbench instance itself, because histories
        are bit-identical across backends.

        Every populating run carries a
        :class:`~repro.eval.QualityProbe`, so its trace has per-round
        divergence readings and — when the workbench publishes into a
        checkpoint store — the population manifest is stamped with the
        probe's eval summary, which is what the serve-side quality gate
        judges refresh candidates by.
        """
        from repro.core.ltfb import LtfbConfig, LtfbDriver
        from repro.eval import QualityProbe
        from repro.exec import resolve_backend

        key = (tag, k, rounds, steps_per_round, hyperparam_jitter, topology)
        if key not in self._ltfb_cache:
            trainers = self.population(
                k, tag=tag, hyperparam_jitter=hyperparam_jitter
            )
            driver = LtfbDriver(
                trainers,
                self.pairing_rng(tag),
                LtfbConfig(steps_per_round=steps_per_round, rounds=rounds),
                eval_batch=self.val_batch,
                backend=resolve_backend(
                    self.backend,
                    max_workers=self.workers,
                    prefetch_depth=self.prefetch_depth,
                ),
                topology=topology,
            )
            probe = QualityProbe(capacity=256, seed=self.seed)
            driver.run(
                callbacks=[probe, *callbacks, *self.run_callbacks(tag)]
            )
            if self.store is not None:
                if "autoencoder" not in self.store:
                    self.store.save_autoencoder(self.autoencoder)
                winner, _ = driver.best_trainer()
                safe = re.sub(r"[^A-Za-z0-9._-]+", "-", tag).strip("-")
                self.store.save_population(
                    trainers,
                    f"{safe}-k{k}",
                    winner=winner.name,
                    topology=driver.topology,
                    eval_summary=probe.summary(winner=winner.name),
                )
            self._ltfb_cache[key] = driver
        return self._ltfb_cache[key]
