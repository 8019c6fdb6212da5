#!/usr/bin/env python
"""The distributed in-memory data store, demonstrated end to end.

Reproduces Section III-B's behaviour functionally:

1. a JAG campaign writes exploration-ordered bundle files to a simulated
   parallel file system;
2. a naive reader hammers the file system every epoch;
3. the data store (dynamic and preloaded modes) stops touching the file
   system after population, assembling every mini-batch by shuffling
   owner-rank shards (inter- vs intra-node transfers are counted).

Run:  python examples/datastore_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster import SimulatedFilesystem
from repro.comm import contiguous_placement
from repro.datastore import DistributedDataStore, NaiveReader, StoreReader
from repro.jag import JagDatasetConfig, small_schema
from repro.utils.rng import RngFactory
from repro.utils.units import format_bytes
from repro.workflow import WorkerPoolSpec, run_campaign

SAMPLES = 1000
SAMPLES_PER_BUNDLE = 50
BATCH = 40
RANKS = 4


def epoch_stats(fs: SimulatedFilesystem, reader, label: str, epochs: int = 3):
    for epoch in range(epochs):
        before = fs.stats.opens
        for _ in reader.epoch(BATCH):
            pass
        print(
            f"  {label} epoch {epoch}: {fs.stats.opens - before:4d} file opens, "
            f"{format_bytes(fs.stats.bytes_read)} read so far"
        )


def main() -> None:
    rngs = RngFactory(7)

    print("running the JAG campaign under the workflow engine ...")
    fs = SimulatedFilesystem()
    campaign = run_campaign(
        JagDatasetConfig(n_samples=SAMPLES, schema=small_schema(8), seed=7),
        fs,
        pool=WorkerPoolSpec(num_workers=32, tasks_per_job=50),
        samples_per_bundle=SAMPLES_PER_BUNDLE,
    )
    paths = campaign.bundle_paths
    print(
        f"  {SAMPLES} simulations -> {len(paths)} bundle files "
        f"({format_bytes(fs.total_bytes)}); workflow overhead "
        f"{campaign.stats.overhead_fraction:.1%} of worker time"
    )

    ids = np.arange(SAMPLES)

    print("\nnaive ingestion (no data store):")
    naive = NaiveReader(fs, paths, SAMPLES_PER_BUNDLE, ids, rngs.generator("naive"))
    epoch_stats(fs, naive, "naive")
    hot = max(fs.stats.opens_per_file.values())
    print(f"  hottest bundle file was opened {hot} times")

    print("\ndata store, dynamic mode (cache during epoch 0):")
    fs.stats.reset()
    placement = contiguous_placement(RANKS, 2)
    store = DistributedDataStore(RANKS, bytes_per_rank=10**8, placement=placement)
    dynamic = StoreReader(
        fs, paths, SAMPLES_PER_BUNDLE, ids, rngs.generator("dyn"), store, "dynamic"
    )
    epoch_stats(fs, dynamic, "dynamic")
    print(
        f"  store: {store.num_cached} samples cached, shuffle "
        f"{store.stats.remote_fraction:.1%} inter-node "
        f"({format_bytes(store.stats.remote_bytes)} across the fabric)"
    )

    print("\ndata store, preloaded mode:")
    fs.stats.reset()
    store2 = DistributedDataStore(RANKS, bytes_per_rank=10**8, placement=placement)
    preloaded = StoreReader(
        fs, paths, SAMPLES_PER_BUNDLE, ids, rngs.generator("pre"), store2, "preload"
    )
    print(
        f"  preload opened {fs.stats.opens} files "
        f"({fs.stats.opens / len(paths):.0f} per bundle — one each)"
    )
    epoch_stats(fs, preloaded, "preload")


if __name__ == "__main__":
    main()
