"""Data readers: how a trainer gets its mini-batches.

Three readers with one interface:

- :class:`ArrayReader` — in-memory column arrays (no file system); used
  when ingestion is not the subject under study.
- :class:`NaiveReader` — the baseline the paper criticizes: every
  mini-batch opens the bundle files containing its randomly drawn samples,
  so each process opens many files and each file is hit by many batches.
- :class:`StoreReader` — backed by the distributed data store, in
  ``dynamic`` mode (cache on first touch during epoch 0) or ``preload``
  mode (populate before training); after population it never touches the
  file system — the invariant the paper's Figure 5 illustrates and our
  tests assert.

Readers shuffle with their own :class:`numpy.random.Generator` so epoch
order is reproducible and independent across trainers.

The data path is split into two phases (paper Section III-B overlaps the
second with training compute):

- :meth:`Reader.plan_epoch` — *deciding* the batches.  Deterministic and
  I/O-free; the only phase that touches the reader RNG.  Returns an
  :class:`EpochPlan` of :class:`BatchPlan` entries plus the RNG state the
  plan was drawn from, so an in-flight epoch is replayable from a
  checkpoint.
- :meth:`Reader.materialize` — *building* one planned batch.  RNG-free,
  so it can run ahead on a background thread
  (:class:`~repro.datastore.pipeline.PrefetchingReader`) without
  perturbing the sequence of batches a trainer sees.

:meth:`Reader.epoch` is the synchronous composition of the two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.filesystem import SimulatedFilesystem
from repro.datastore.bundle import Bundle
from repro.datastore.store import DistributedDataStore, consumer_ranks_for_batch

__all__ = [
    "MiniBatch",
    "BatchPlan",
    "EpochPlan",
    "Reader",
    "ArrayReader",
    "NaiveReader",
    "StoreReader",
]


@dataclass
class MiniBatch:
    """One training step's data: stacked field arrays plus provenance."""

    feeds: dict[str, np.ndarray]
    sample_ids: np.ndarray

    @property
    def size(self) -> int:
        return int(self.sample_ids.size)


@dataclass(frozen=True)
class BatchPlan:
    """One planned mini-batch: which samples, and where in the schedule.

    Produced by :meth:`Reader.plan_epoch`; consumed by
    :meth:`Reader.materialize`.  Carries no data — only the decision.
    """

    epoch_index: int
    step_index: int
    sample_ids: np.ndarray
    is_last: bool  # final batch of its epoch

    @property
    def size(self) -> int:
        return int(self.sample_ids.size)


@dataclass(frozen=True)
class EpochPlan:
    """A full epoch's batch schedule plus the RNG provenance to replay it.

    The plan holds the epoch's sample ids in delivery order and cuts a
    :class:`BatchPlan` out of them when a step is asked for
    (``plan[step]``, iteration, :attr:`batches`): drawing a plan costs one
    permutation however many steps the epoch has, so a plan that is
    re-drawn on every resume is paid for only in the steps it delivers.

    ``rng_state`` is the reader RNG's bit-generator state *before* the
    permutation was drawn: restoring it and calling
    :meth:`Reader.plan_epoch` again regenerates this exact plan — the
    mechanism mid-epoch checkpoint resume is built on.

    ``universe_version`` pins *which* sample universe the plan was drawn
    against.  ``None`` for fixed-population readers; streaming readers
    (:class:`~repro.ingest.StreamReader`) stamp the frozen snapshot
    version here so a replayed plan re-freezes the identical id set even
    if the universe has since grown.
    """

    epoch_index: int
    batch_size: int
    drop_last: bool
    rng_state: dict
    sample_ids: np.ndarray  # every id the epoch delivers, in order
    universe_version: int | None = None

    def __len__(self) -> int:
        return -(-self.sample_ids.size // self.batch_size)

    def __getitem__(self, step: int) -> BatchPlan:
        steps = len(self)
        if not 0 <= step < steps:
            raise IndexError(f"step {step} is outside the {steps}-step epoch")
        lo = step * self.batch_size
        return BatchPlan(
            epoch_index=self.epoch_index,
            step_index=step,
            sample_ids=self.sample_ids[lo : lo + self.batch_size],
            is_last=(step == steps - 1),
        )

    def __iter__(self) -> Iterator[BatchPlan]:
        return (self[step] for step in range(len(self)))

    @property
    def batches(self) -> tuple[BatchPlan, ...]:
        return tuple(self)


class Reader(ABC):
    """Iterable source of mini-batches over a fixed sample population.

    ``epochs_completed`` counts *delivered* epochs: it advances exactly
    when an epoch's final batch is handed to the consumer (not when the
    exhausted iterator is polled one more time), so a trainer that has
    consumed N full epochs reports N even if it stopped on the epoch's
    last step.  Partially consumed epochs never count.
    """

    def __init__(self, sample_ids: Sequence[int], rng: np.random.Generator) -> None:
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        if self.sample_ids.ndim != 1 or self.sample_ids.size == 0:
            raise ValueError("sample_ids must be a non-empty 1-D sequence")
        self._rng = rng
        self.epochs_completed = 0
        # Epochs whose plan has been drawn (may run ahead of delivery
        # under a prefetching pipeline); assigns EpochPlan.epoch_index.
        self._epochs_planned = 0

    @property
    def num_samples(self) -> int:
        return int(self.sample_ids.size)

    def steps_per_epoch(self, batch_size: int, drop_last: bool = True) -> int:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = self.num_samples
        return n // batch_size if drop_last else -(-n // batch_size)

    # -- plan phase (RNG, no I/O) -------------------------------------------

    def plan_epoch(self, batch_size: int, drop_last: bool = True) -> EpochPlan:
        """Decide one epoch's batches: the only phase that touches the RNG.

        Draws a fresh permutation (the :class:`EpochPlan` slices it into
        :class:`BatchPlan` entries on access); performs no file or store
        I/O, so a plan can be drawn arbitrarily far ahead of
        materialization.
        """
        universe_version = self._freeze_plan_universe()
        steps = self.steps_per_epoch(batch_size, drop_last)
        if steps == 0:
            raise ValueError(
                f"batch_size {batch_size} exceeds population {self.num_samples}"
            )
        rng_state = self._rng.bit_generator.state
        perm = self._rng.permutation(self.num_samples)
        epoch_index = self._epochs_planned
        self._epochs_planned += 1
        return EpochPlan(
            epoch_index, batch_size, drop_last, rng_state,
            self.sample_ids[perm[: steps * batch_size]],  # drop_last cuts the tail
            universe_version=universe_version,
        )

    def _freeze_plan_universe(self) -> int | None:
        """Pin the sample universe the next plan will be drawn against.

        Called at the top of :meth:`plan_epoch`, before anything else reads
        ``self.sample_ids``.  Fixed-population readers return ``None``;
        growing-universe readers override this to freeze a snapshot
        (updating ``self.sample_ids``) and return its version, which is
        stamped into the resulting :class:`EpochPlan` for replay.
        """
        return None

    # -- materialize phase (I/O, no RNG) ------------------------------------

    def materialize(self, plan: BatchPlan) -> MiniBatch:
        """Build one planned batch.  RNG-free, hence safe to run ahead."""
        return MiniBatch(self._fetch(plan.sample_ids, plan=plan), plan.sample_ids)

    # -- synchronous composition --------------------------------------------

    def epoch(
        self, batch_size: int, drop_last: bool = True
    ) -> Iterator[MiniBatch]:
        """Yield one epoch of mini-batches: plan, then materialize each."""
        plan = self.plan_epoch(batch_size, drop_last)
        for bp in plan:
            mb = self.materialize(bp)
            if bp.is_last:
                self.epochs_completed += 1
            yield mb

    @abstractmethod
    def _fetch(
        self, ids: np.ndarray, plan: BatchPlan | None = None
    ) -> dict[str, np.ndarray]:
        """Materialize the batch for the given global sample ids.

        ``plan`` (when the fetch serves a planned batch) lets store-backed
        readers attribute exchange accounting to the planned epoch/step.
        """


class ArrayReader(Reader):
    """Reads directly from in-memory column arrays indexed by sample id."""

    def __init__(
        self,
        fields: Mapping[str, np.ndarray],
        sample_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__(sample_ids, rng)
        self._fields = {k: np.asarray(v) for k, v in fields.items()}
        n = {k: v.shape[0] for k, v in self._fields.items()}
        if len(set(n.values())) != 1:
            raise ValueError(f"fields disagree on sample count: {n}")
        if self.sample_ids.min() < 0:
            raise ValueError("sample ids must be non-negative")
        if self.sample_ids.max() >= next(iter(n.values())):
            raise ValueError("sample ids exceed field length")

    def _fetch(
        self, ids: np.ndarray, plan: BatchPlan | None = None
    ) -> dict[str, np.ndarray]:
        return {k: v[ids] for k, v in self._fields.items()}


class _BundleIndexed(Reader):
    """Shared logic for readers that locate samples in bundle files."""

    def __init__(
        self,
        fs: SimulatedFilesystem,
        bundle_paths: Sequence[str],
        samples_per_bundle: int,
        sample_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__(sample_ids, rng)
        if samples_per_bundle <= 0:
            raise ValueError("samples_per_bundle must be positive")
        self._fs = fs
        self._paths = list(bundle_paths)
        self._spb = int(samples_per_bundle)

    def _bundle_of(self, sample_id: int) -> tuple[str, int]:
        """Locate a global sample id: (bundle path, row)."""
        b, row = divmod(int(sample_id), self._spb)
        if not 0 <= b < len(self._paths):
            raise KeyError(f"sample {sample_id} is outside the bundle set")
        return self._paths[b], row

    def _read_batch_from_files(
        self, ids: np.ndarray
    ) -> list[tuple[int, dict[str, np.ndarray]]]:
        """Open each touched bundle once and pull the needed rows.

        Returns ``(position, sample)`` pairs in batch order.
        """
        by_bundle: dict[str, list[tuple[int, int]]] = {}
        for pos, sid in enumerate(ids):
            path, row = self._bundle_of(int(sid))
            by_bundle.setdefault(path, []).append((pos, row))
        out: list[tuple[int, dict[str, np.ndarray]]] = []
        for path, entries in by_bundle.items():
            bundle: Bundle = self._fs.read_file(path)
            for pos, row in entries:
                out.append((pos, bundle.sample(row)))
        out.sort(key=lambda t: t[0])
        return out


class NaiveReader(_BundleIndexed):
    """File-per-batch ingestion with no caching (the Fig. 10 baseline)."""

    def _fetch(
        self, ids: np.ndarray, plan: BatchPlan | None = None
    ) -> dict[str, np.ndarray]:
        samples = self._read_batch_from_files(ids)
        names = sorted(samples[0][1])
        return {
            name: np.stack([s[name] for _pos, s in samples], axis=0)
            for name in names
        }


class StoreReader(_BundleIndexed):
    """Reader backed by the distributed in-memory data store.

    ``mode="preload"`` populates the store from the bundle files on
    construction; ``mode="dynamic"`` populates lazily during the first
    epoch (caching each sample on the rank that consumes it).  Either way,
    after population every batch is served purely from the store.
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        bundle_paths: Sequence[str],
        samples_per_bundle: int,
        sample_ids: Sequence[int],
        rng: np.random.Generator,
        store: DistributedDataStore,
        mode: str = "preload",
    ) -> None:
        super().__init__(fs, bundle_paths, samples_per_bundle, sample_ids, rng)
        if mode not in ("preload", "dynamic"):
            raise ValueError(f"mode must be 'preload' or 'dynamic', got {mode!r}")
        self.store = store
        self.mode = mode
        self.preload_report: dict[int, tuple[int, int]] | None = None
        if mode == "preload":
            # Only the bundles containing this reader's population.
            needed = sorted({self._bundle_of(int(s))[0] for s in self.sample_ids})
            self.preload_report = store.preload(fs, needed)

    def _fetch(
        self, ids: np.ndarray, plan: BatchPlan | None = None
    ) -> dict[str, np.ndarray]:
        file_samples: dict[int, dict[str, np.ndarray]] = {}
        if self.mode == "dynamic":
            missing = [int(s) for s in ids if s not in self.store]
            if missing:
                consumers = consumer_ranks_for_batch(ids.size, self.store.num_ranks)
                pos_of = {int(s): p for p, s in enumerate(ids)}
                for pos, sample in self._read_batch_from_files(
                    np.asarray(missing, dtype=np.int64)
                ):
                    sid = missing[pos]
                    file_samples[sid] = sample
                    self.store.cache_sample(
                        int(consumers[pos_of[sid]]), sid, sample
                    )
            # With an evicting (over-capacity) store, caching this batch's
            # misses may itself evict this batch's hits; re-read the
            # casualties from their files (uncached) so the batch always
            # assembles.
            still_missing = [
                int(s) for s in ids if s not in self.store and int(s) not in file_samples
            ]
            if still_missing:
                for pos, sample in self._read_batch_from_files(
                    np.asarray(still_missing, dtype=np.int64)
                ):
                    file_samples[still_missing[pos]] = sample
        return self.store.fetch_batch(ids, fallback=file_samples or None, plan=plan)
