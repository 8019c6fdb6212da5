"""Figure 10: epoch time with and without the distributed data store.

The paper compares three ingestion configurations on the 1M-sample set at
1-16 GPUs, each with its initial and steady-state epoch time:

- "Dynamic Loading" — no data store (naive file reads every epoch);
- "Data Store: dynamic mode" — cache-on-first-touch during epoch 0;
- "Data Store: preloaded" — populate before training.

Reported headlines: the store's steady-state benefit runs "from a massive
7.73x for a trainer using a single GPU to a 1.31x for a trainer with 4
nodes"; preloading "did not have sufficient memory ... with 1 or 2 GPUs";
at 4 nodes preloading gives "a 1.43x improvement versus no data store,
and a 1.10x improvement over the dynamically loaded data store".

Alongside the analytic grid the report *measures* the data-plane overlap
on the functional stack: one store-backed reader driven through
:func:`repro.datastore.build_pipeline` at prefetch depth 0 (synchronous)
and depth k, with BLAS-heavy stand-in compute between batches.  The
depth-k run must hide batch materialization behind the compute — less
fetch stall than depth 0 — which is the mechanism behind the paper's
steady-state epoch times (Section III-B's background ingestion).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.filesystem import SimulatedFilesystem
from repro.cluster.machine import MachineSpec, lassen
from repro.core.perfmodel import (
    IngestionMode,
    PerfDataset,
    TrainerPerfModel,
    TrainerResources,
)
from repro.datastore import DistributedDataStore, StoreReader, build_pipeline
from repro.datastore.store import InsufficientMemoryError
from repro.experiments.common import ExperimentReport
from repro.jag.dataset import JagDatasetConfig, generate_dataset, paper_schema, small_schema
from repro.models.cyclegan import SurrogateArchitecture, paper_architecture
from repro.telemetry import MetricsCollector, TelemetryHub

__all__ = ["run", "PAPER_BENEFIT_1GPU", "PAPER_BENEFIT_16GPU", "PAPER_PRELOAD_VS_DYNAMIC"]

PAPER_BENEFIT_1GPU = 7.73
PAPER_BENEFIT_16GPU = 1.31
PAPER_PRELOAD_VS_NAIVE = 1.43
PAPER_PRELOAD_VS_DYNAMIC = 1.10


def _measure_overlap(
    prefetch_depth: int,
    seed: int = 2019,
    steps: int = 80,
    batch: int = 32,
    n_samples: int = 512,
) -> dict[int, tuple[float, float]]:
    """Measured fetch stall/overlap per depth on a store-backed reader.

    Runs the same preloaded :class:`StoreReader` through the data
    pipeline at depth 0 and ``prefetch_depth``, interleaving every batch
    with matrix-product compute (NumPy releases the GIL there, so the
    prefetch thread genuinely materializes underneath it).  Returns
    ``{depth: (stall_s, overlap_s)}`` from the ``fetch_stall`` telemetry.
    """
    dataset = generate_dataset(
        JagDatasetConfig(n_samples=n_samples, schema=small_schema(8), seed=seed)
    )
    spb = 32
    # Stand-in train step, sized to dominate one batch materialization.
    work = np.random.default_rng(seed).standard_normal((384, 384))
    results: dict[int, tuple[float, float]] = {}
    for depth in sorted({0, int(prefetch_depth)}):
        fs = SimulatedFilesystem()
        paths = dataset.write_bundles(fs, spb)
        store = DistributedDataStore(4, bytes_per_rank=10**8)
        reader = StoreReader(
            fs,
            paths,
            spb,
            np.arange(n_samples),
            np.random.default_rng(seed),
            store,
            "preload",
        )
        hub = TelemetryHub()
        counters = MetricsCollector()
        hub.subscribe(counters)
        pipeline = build_pipeline(reader, batch, prefetch_depth=depth)
        pipeline.telemetry = hub
        try:
            for _ in range(steps):
                pipeline.next_batch()
                acc = work
                for _ in range(8):
                    acc = acc @ work
        finally:
            pipeline.close()
        results[depth] = (counters.stall.sum, float(counters.fetch_overlap.value))
    return results


def run(
    machine: MachineSpec | None = None,
    arch: SurrogateArchitecture | None = None,
    n_samples: int = 1_000_000,
    val_samples: int = 100_000,
    global_batch: int = 128,
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    prefetch_depth: int = 2,
) -> ExperimentReport:
    """Sweep ingestion mode x GPU count; returns the Fig.-10 grid.

    ``prefetch_depth`` sets the overlapped depth for the measured
    stall-vs-overlap section (``0`` skips the measurement).
    """
    machine = machine or lassen()
    arch = arch or paper_architecture()
    schema = paper_schema()
    train = PerfDataset(n_samples, schema.sample_nbytes)
    val = PerfDataset(val_samples, schema.sample_nbytes)
    report = ExperimentReport(
        experiment="Figure 10",
        description=(
            "data-store modes vs naive ingestion, "
            f"{n_samples:,} train + {val_samples:,} val samples"
        ),
        columns=[
            "gpus",
            "naive_initial_s",
            "naive_steady_s",
            "dynamic_initial_s",
            "dynamic_steady_s",
            "preload_initial_s",
            "preload_steady_s",
        ],
    )

    grid: dict[tuple[int, IngestionMode], tuple[float, float] | None] = {}
    for gpus in gpu_counts:
        resources = TrainerResources(
            num_ranks=gpus, ranks_per_node=min(gpus, machine.node.gpus_per_node)
        )
        row: dict[str, object] = {"gpus": gpus}
        for mode, label in (
            (IngestionMode.NAIVE, "naive"),
            (IngestionMode.STORE_DYNAMIC, "dynamic"),
            (IngestionMode.STORE_PRELOAD, "preload"),
        ):
            try:
                model = TrainerPerfModel(
                    machine,
                    arch,
                    resources,
                    train,
                    mode,
                    val=val,
                    global_batch=global_batch,
                )
                initial = model.epoch_time(steady=False)
                steady = model.epoch_time(steady=True)
                grid[(gpus, mode)] = (initial, steady)
                row[f"{label}_initial_s"] = initial
                row[f"{label}_steady_s"] = steady
            except InsufficientMemoryError:
                grid[(gpus, mode)] = None
                row[f"{label}_initial_s"] = "OOM"
                row[f"{label}_steady_s"] = "OOM"
        report.add_row(**row)

    def steady(gpus: int, mode: IngestionMode) -> float:
        entry = grid[(gpus, mode)]
        assert entry is not None
        return entry[1]

    if 1 in gpu_counts:
        report.add_check(
            "dynamic-store steady benefit at 1 GPU",
            PAPER_BENEFIT_1GPU,
            steady(1, IngestionMode.NAIVE) / steady(1, IngestionMode.STORE_DYNAMIC),
            0.20,
        )
    if 16 in gpu_counts:
        report.add_check(
            "dynamic-store steady benefit at 16 GPUs",
            PAPER_BENEFIT_16GPU,
            steady(16, IngestionMode.NAIVE) / steady(16, IngestionMode.STORE_DYNAMIC),
            0.15,
        )
        report.add_check(
            "preload vs naive at 16 GPUs",
            PAPER_PRELOAD_VS_NAIVE,
            steady(16, IngestionMode.NAIVE) / steady(16, IngestionMode.STORE_PRELOAD),
            0.15,
        )
        report.add_check(
            "preload vs dynamic at 16 GPUs",
            PAPER_PRELOAD_VS_DYNAMIC,
            steady(16, IngestionMode.STORE_DYNAMIC)
            / steady(16, IngestionMode.STORE_PRELOAD),
            0.10,
        )
    oom_gpus = [
        g for g in gpu_counts if grid[(g, IngestionMode.STORE_PRELOAD)] is None
    ]
    report.notes.append(
        f"preload infeasible (InsufficientMemoryError) at GPU counts: "
        f"{oom_gpus or 'none'} — paper reports 1 and 2"
    )
    if prefetch_depth > 0:
        measured = _measure_overlap(prefetch_depth)
        stall_0, _ = measured[0]
        stall_k, overlap_k = measured[prefetch_depth]
        report.add_check(
            f"prefetch depth {prefetch_depth} reduces measured fetch stall",
            paper=1.0,
            measured=1.0 if stall_k < stall_0 else 0.0,
            tol=0.0,
            note=(
                f"store-backed reader, measured: stall {stall_0 * 1e3:.1f}ms "
                f"at depth 0 -> {stall_k * 1e3:.1f}ms at depth "
                f"{prefetch_depth} ({overlap_k * 1e3:.1f}ms of "
                f"materialization overlapped with compute)"
            ),
        )
        report.notes.append(
            "stall/overlap measured on the functional store-backed reader "
            "(preloaded, depth 0 vs. depth "
            f"{prefetch_depth}); the analytic grid above models the same "
            "overlap at paper scale"
        )
    return report
