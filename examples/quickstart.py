#!/usr/bin/env python
"""Quickstart: train a small ICF surrogate with LTFB in a couple of minutes.

Walks the core public API end to end:

1. generate a synthetic JAG dataset (5-D inputs -> 15 scalars + 12 images);
2. pre-train the shared multimodal autoencoder (the 20-D latent space);
3. build a 4-trainer LTFB population over contiguous (non-IID) data silos;
4. run tournament training and inspect the winning surrogate.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    EnsembleSpec,
    LtfbConfig,
    LtfbDriver,
    TrainerConfig,
    build_population,
    pretrain_autoencoder,
)
from repro.jag import JagDatasetConfig, generate_dataset, small_schema
from repro.models import small_config
from repro.telemetry import (
    JsonlTraceWriter,
    LiveAggregator,
    MetricsCollector,
    ProgressLogger,
)
from repro.utils.rng import RngFactory


def main() -> None:
    rngs = RngFactory(seed=42)

    # 1. Data: 2,048 synthetic ICF simulations, 12x12 images for speed.
    print("generating synthetic JAG dataset ...")
    dataset = generate_dataset(
        JagDatasetConfig(n_samples=2048, schema=small_schema(12), seed=42)
    )
    train_ids, val_ids = dataset.train_val_split(0.15, mode="strided")
    val_batch = {k: v[val_ids] for k, v in dataset.fields.items()}

    # 2. Shared autoencoder, trained a priori (defines the latent space).
    spec = EnsembleSpec(
        k=4,
        surrogate=small_config(dataset.schema, batch_size=64),
        trainer=TrainerConfig(batch_size=64),
        ae_epochs=8,
        hyperparam_jitter=0.25,
    )
    print("pre-training the multimodal autoencoder ...")
    autoencoder = pretrain_autoencoder(dataset, train_ids, rngs, spec)
    recon = autoencoder.reconstruction_error(val_batch)
    print(
        f"  autoencoder reconstruction: scalars MAE {recon['scalar_mae']:.3f}, "
        f"images MAE {recon['image_mae']:.4f}"
    )

    # 3. Population of trainers over contiguous silos.
    trainers = build_population(dataset, train_ids, rngs, spec, autoencoder)
    for t in trainers:
        drive = dataset.params[t.reader.sample_ids, 0]
        print(
            f"  {t.name}: {t.reader.num_samples} samples, "
            f"laser drive in [{drive.min():.2f}, {drive.max():.2f}]"
        )

    # 4. Tournament training, observed through the telemetry subsystem:
    #    a progress line per round, per-phase wall-clock totals (from the
    #    metrics collector), the run-health rules (alerts print under the
    #    round they fire in), and a JSONL trace you can inspect afterwards with
    #    `python -m repro.experiments trace-report quickstart_trace.jsonl`.
    print("running LTFB (8 rounds x 20 steps) ...")
    driver = LtfbDriver(
        trainers,
        rngs.generator("pairing"),
        LtfbConfig(steps_per_round=20, rounds=8),
        eval_batch=val_batch,
    )
    metrics = MetricsCollector()
    history = driver.run(
        callbacks=[
            ProgressLogger(),
            metrics,
            LiveAggregator(),
            JsonlTraceWriter("quickstart_trace.jsonl"),
        ]
    )
    print(f"tournament adoption rate: {history.adoption_rate():.2f}")
    print(f"  run healthy: {history.healthy}")
    phases = ", ".join(
        f"{phase} {seconds.value:.3f}s"
        for phase, seconds in metrics.phase_seconds.items()
    )
    rounds = metrics.registry["repro_rounds_total"].value
    print(f"  wall clock over {rounds} rounds: {phases}")
    print("  telemetry trace written to quickstart_trace.jsonl")

    best, loss = driver.best_trainer()
    print(f"\nwinning trainer: {best.name} (val loss {loss:.3f})")

    # Use the surrogate: forward prediction and inversion on one sample.
    sample = {k: v[:1] for k, v in val_batch.items()}
    scalars_hat, images_hat = best.surrogate.predict_outputs(sample["params"])
    raw_truth = dataset.denormalize_scalars(sample["scalars"])
    raw_pred = dataset.denormalize_scalars(scalars_hat)
    print("\nforward prediction (first 5 scalars, physical units):")
    print(f"  truth:     {np.round(raw_truth[0, :5], 3)}")
    print(f"  predicted: {np.round(raw_pred[0, :5], 3)}")
    x_hat = best.surrogate.invert(sample["scalars"], sample["images"])
    print("inverse inference (5-D input parameters):")
    print(f"  truth:     {np.round(sample['params'][0], 3)}")
    print(f"  inferred:  {np.round(x_hat[0], 3)}")


if __name__ == "__main__":
    main()
