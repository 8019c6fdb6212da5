"""Distributed in-memory data store and data ingestion (Section III-B).

The paper's data store caches training samples in host memory, sharded
across the ranks of a trainer, and assembles every mini-batch by shuffling
locally cached samples to the ranks that need them — after the first epoch
(dynamic mode) or a preload phase, *no data is read from the file system*.

- :mod:`repro.datastore.bundle` — multi-sample bundle files (HDF5 analog)
  on the simulated PFS.
- :mod:`repro.datastore.store` — the distributed store: ownership,
  capacity accounting, mini-batch exchange, dynamic/preload population.
- :mod:`repro.datastore.reader` — training-side readers: a naive
  file-per-sample reader and a store-backed reader, each split into a
  deterministic RNG-only *plan* phase and an RNG-free *materialize* phase.
- :mod:`repro.datastore.pipeline` — plan/materialize cursors: the
  synchronous :class:`BatchPipeline` and the background-thread
  :class:`PrefetchingReader` that overlaps batch assembly with training
  compute (the paper's non-blocking exchange, Section III-B).
- :mod:`repro.datastore.partition` — dataset partitioning across LTFB
  trainers (contiguous bundle ranges by default, matching the paper's
  exploration-ordered files).
"""

from repro.datastore.bundle import Bundle, bundle_paths_for, write_bundles
from repro.datastore.store import (
    DataStoreStats,
    DistributedDataStore,
    InsufficientMemoryError,
)
from repro.datastore.reader import (
    ArrayReader,
    BatchPlan,
    EpochPlan,
    MiniBatch,
    NaiveReader,
    Reader,
    StoreReader,
)
from repro.datastore.pipeline import BatchPipeline, PrefetchingReader, build_pipeline
from repro.datastore.partition import partition_indices, partition_items

__all__ = [
    "Bundle",
    "write_bundles",
    "bundle_paths_for",
    "DistributedDataStore",
    "DataStoreStats",
    "InsufficientMemoryError",
    "Reader",
    "ArrayReader",
    "NaiveReader",
    "StoreReader",
    "MiniBatch",
    "BatchPlan",
    "EpochPlan",
    "BatchPipeline",
    "PrefetchingReader",
    "build_pipeline",
    "partition_indices",
    "partition_items",
]
