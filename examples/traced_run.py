#!/usr/bin/env python
"""Traced run: a tiny LTFB training with the full observability stack on.

Demonstrates (and gives CI a deterministic workload for) the telemetry
span/metrics/health pipeline:

1. run a small 4-trainer LTFB population on the ``process`` backend with
   prefetch enabled, so trainer steps and prefetch fills land on separate
   timeline tracks;
2. write a span-enabled JSONL trace (``JsonlTraceWriter(spans=True)``),
   an accumulated metrics registry (Prometheus text), and run-health
   warnings into the ``History``;
3. print where everything landed, ready for::

       python -m repro.experiments trace-report  <out>/trace.jsonl
       python -m repro.experiments trace-export  <out>/trace.jsonl

   The exported JSON loads in Perfetto (https://ui.perfetto.dev) or
   chrome://tracing.

Run:  python examples/traced_run.py [output-dir]   (default: traced-run/)
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core import (
    EnsembleSpec,
    LtfbConfig,
    LtfbDriver,
    TrainerConfig,
    build_population,
    pretrain_autoencoder,
)
from repro.exec import resolve_backend
from repro.jag import JagDatasetConfig, generate_dataset, small_schema
from repro.models import small_config
from repro.telemetry import (
    JsonlTraceWriter,
    LiveAggregator,
    MetricsCollector,
    ProgressLogger,
    ResourceSampler,
    write_metrics,
)
from repro.utils.rng import RngFactory


def main(out_dir: str = "traced-run") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rngs = RngFactory(seed=7)

    print("generating synthetic JAG dataset ...")
    dataset = generate_dataset(
        JagDatasetConfig(n_samples=512, schema=small_schema(8), seed=7)
    )
    train_ids, val_ids = dataset.train_val_split(0.15, mode="strided")
    val_batch = {k: v[val_ids] for k, v in dataset.fields.items()}

    spec = EnsembleSpec(
        k=4,
        surrogate=small_config(dataset.schema, batch_size=32),
        trainer=TrainerConfig(batch_size=32),
        ae_epochs=2,
        ae_max_samples=256,
        hyperparam_jitter=0.25,
    )
    print("pre-training the multimodal autoencoder ...")
    autoencoder = pretrain_autoencoder(dataset, train_ids, rngs, spec)
    trainers = build_population(dataset, train_ids, rngs, spec, autoencoder)

    # Process backend + prefetch: trainer steps and the prefetch fills
    # that overlap them land on distinct tracks in the exported trace.
    driver = LtfbDriver(
        trainers,
        np.random.default_rng(7),
        LtfbConfig(steps_per_round=6, rounds=3),
        eval_batch=val_batch,
        backend=resolve_backend("process", max_workers=2, prefetch_depth=2),
    )

    trace_path = out / "trace.jsonl"
    metrics = MetricsCollector()
    health = LiveAggregator()
    print("training (process backend, 2 workers, prefetch depth 2) ...")
    with JsonlTraceWriter(
        trace_path, metadata={"example": "traced_run"}, spans=True
    ) as tracer:
        history = driver.run(
            callbacks=[
                tracer, metrics, health, ProgressLogger(), ResourceSampler(),
            ]
        )

    metrics_path = out / "metrics.prom"
    write_metrics(metrics.registry, metrics_path)

    print(f"run healthy: {history.healthy}")
    for w in history.health_warnings:
        print(f"  {w.render()}")
    print(f"trace written:   {trace_path} ({tracer.events_written} events)")
    print(f"metrics written: {metrics_path}")
    print("next steps:")
    print(f"  python -m repro.experiments trace-report {trace_path}")
    print(f"  python -m repro.experiments trace-export {trace_path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
