"""The distributed in-memory data store (paper Section III-B).

Functional, in-process model of the store across the ranks of one trainer:

- every rank owns a disjoint *shard* of cached samples, capacity-limited
  by its host-memory budget (resource-set share of node memory);
- **preloading** assigns disjoint bundle files round-robin to ranks, each
  rank reading all samples of its files — "this minimizes the number of
  files each process opens concurrently, and ensures that each file is
  only opened by one process per trainer";
- **dynamic** population caches samples on the consuming rank as they are
  first touched during epoch 0;
- every mini-batch is assembled by an exchange from owner ranks to
  consumer ranks; the store records how many fetches crossed node
  boundaries (the shuffle the cost model prices and the store overlaps
  with compute).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.cluster.filesystem import SimulatedFilesystem
from repro.comm.topology import RankPlacement

if TYPE_CHECKING:
    from repro.telemetry import TelemetryHub

__all__ = [
    "InsufficientMemoryError",
    "DataStoreStats",
    "DistributedDataStore",
    "consumer_ranks_for_batch",
]


class InsufficientMemoryError(RuntimeError):
    """A rank's shard would exceed its host-memory budget.

    This is the error behind two paper observations: preloading was
    impossible with 1-2 GPUs on the 1M-sample set (Fig. 10), and a 4-node
    trainer could not hold the 10M-sample set (Fig. 11 baseline ran on 16
    nodes with 1 rank per node instead).
    """


@dataclass
class DataStoreStats:
    """Counters over the lifetime of the store.

    ``per_rank_bytes`` mirrors each rank's current shard occupancy (one
    entry per rank, maintained by the store as samples are cached and
    evicted) — the per-rank memory-balance view Fig. 10 style analyses
    read.
    """

    cached_samples: int = 0
    cached_bytes: int = 0
    local_fetches: int = 0
    remote_fetches: int = 0
    local_bytes: int = 0
    remote_bytes: int = 0
    evictions: int = 0
    admitted: int = 0
    per_rank_bytes: list[int] = field(default_factory=list)

    @property
    def total_fetches(self) -> int:
        return self.local_fetches + self.remote_fetches

    @property
    def remote_fraction(self) -> float:
        total = self.total_fetches
        return self.remote_fetches / total if total else 0.0


def consumer_ranks_for_batch(batch_size: int, num_ranks: int) -> np.ndarray:
    """Map each position of a mini-batch to the data-parallel rank that
    consumes it (contiguous blocks, matching LBANN's sample-to-rank
    distribution within a mini-batch)."""
    if batch_size <= 0 or num_ranks <= 0:
        raise ValueError("batch_size and num_ranks must be positive")
    return (np.arange(batch_size) * num_ranks) // batch_size


class DistributedDataStore:
    """Owner-sharded sample cache for one trainer.

    Parameters
    ----------
    num_ranks:
        Ranks (processes) of the trainer.
    bytes_per_rank:
        Host-memory budget of each rank's shard.
    placement:
        Optional rank-to-node placement; when given, fetch statistics
        distinguish intra-node from inter-node transfers (a fetch from the
        *same rank* is free and counts as local).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryHub`; when attached,
        every :meth:`fetch_batch` emits a ``datastore_fetch`` event with
        the batch's local/remote fetch deltas.
    """

    def __init__(
        self,
        num_ranks: int,
        bytes_per_rank: int,
        placement: RankPlacement | None = None,
        evicting: bool = False,
        telemetry: "TelemetryHub | None" = None,
    ) -> None:
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        if bytes_per_rank <= 0:
            raise ValueError(f"bytes_per_rank must be positive, got {bytes_per_rank}")
        if placement is not None and placement.num_ranks != num_ranks:
            raise ValueError(
                f"placement has {placement.num_ranks} ranks, store has {num_ranks}"
            )
        self.num_ranks = num_ranks
        self.bytes_per_rank = int(bytes_per_rank)
        self.placement = placement
        # evicting=True turns each shard into an LRU cache: when a
        # partition exceeds the memory budget, the oldest-touched samples
        # are dropped and re-read from the file system on their next use
        # — the partial-caching regime of over-capacity dynamic stores
        # (see TrainerPerfModel.dynamic_hit_fraction).  Preloading with
        # eviction is a configuration error: a preloaded store must hold
        # everything.
        self.evicting = bool(evicting)
        # OrderedDict per shard: insertion/access order is the LRU order.
        self._shards: list[OrderedDict[int, dict[str, np.ndarray]]] = [
            OrderedDict() for _ in range(num_ranks)
        ]
        self._shard_bytes = [0] * num_ranks
        self._owner: dict[int, int] = {}
        # Round-robin placement cursor for admitted (streamed) samples.
        self._admit_cursor = 0
        self.stats = DataStoreStats(per_rank_bytes=[0] * num_ranks)
        self.telemetry = telemetry

    # -- population ---------------------------------------------------------

    def cache_sample(
        self, rank: int, sample_id: int, sample: Mapping[str, np.ndarray]
    ) -> None:
        """Cache one sample on ``rank`` (dynamic-mode population).

        Over-budget inserts raise :class:`InsufficientMemoryError`, or —
        with ``evicting=True`` — drop the rank's least-recently-used
        samples to make room.
        """
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"invalid rank {rank}")
        if sample_id in self._owner:
            return  # already cached (idempotent)
        nbytes = sum(np.asarray(v).nbytes for v in sample.values())
        if self._shard_bytes[rank] + nbytes > self.bytes_per_rank:
            if not self.evicting or nbytes > self.bytes_per_rank:
                raise InsufficientMemoryError(
                    f"rank {rank} shard would hold "
                    f"{self._shard_bytes[rank] + nbytes} bytes, budget is "
                    f"{self.bytes_per_rank}"
                )
            shard = self._shards[rank]
            while shard and self._shard_bytes[rank] + nbytes > self.bytes_per_rank:
                victim_id, victim = shard.popitem(last=False)  # LRU end
                victim_bytes = sum(v.nbytes for v in victim.values())
                self._shard_bytes[rank] -= victim_bytes
                del self._owner[victim_id]
                self.stats.evictions += 1
                self.stats.cached_samples -= 1
                self.stats.cached_bytes -= victim_bytes
        self._shards[rank][sample_id] = {
            k: np.asarray(v) for k, v in sample.items()
        }
        self._shard_bytes[rank] += nbytes
        self._owner[sample_id] = rank
        self.stats.cached_samples += 1
        self.stats.cached_bytes += nbytes
        self.stats.per_rank_bytes[rank] = self._shard_bytes[rank]

    def admit(
        self,
        sample_id: int,
        sample: Mapping[str, np.ndarray],
        rank: int | None = None,
    ) -> int:
        """Admit one *streamed* sample (no backing file) into the store.

        The ingestion analog of :meth:`cache_sample`: placement is chosen
        by the store — round-robin over ranks in admission order unless
        ``rank`` is forced — so live traffic spreads evenly without the
        bundle-to-rank assignment preloading relies on.  Idempotent per
        sample id.  Returns the rank the sample landed on (or already
        lives on).  Eviction accounting is shared with
        :meth:`cache_sample`: over-budget admissions on an evicting store
        drop LRU residents and count into ``stats.evictions``.
        """
        if sample_id in self._owner:
            return self._owner[sample_id]
        if rank is None:
            rank = self._admit_cursor % self.num_ranks
        self.cache_sample(rank, sample_id, sample)
        self._admit_cursor += 1
        self.stats.admitted += 1
        return rank

    def preload(
        self,
        fs: SimulatedFilesystem,
        bundle_paths: Sequence[str],
        samples_per_bundle: int | None = None,
    ) -> dict[int, tuple[int, int]]:
        """Preload by assigning files round-robin to ranks.

        Each rank opens each of its files exactly once and caches every
        sample in it.  Returns per-rank ``(files_read, bytes_read)`` for
        cost accounting.  ``samples_per_bundle`` is unused functionally
        (bundles know their contents) and accepted for API symmetry.
        """
        if self.evicting:
            raise ValueError(
                "preloading an evicting store is a configuration error: "
                "a preloaded store must hold its whole partition"
            )
        per_rank: dict[int, tuple[int, int]] = {r: (0, 0) for r in range(self.num_ranks)}
        for i, path in enumerate(bundle_paths):
            rank = i % self.num_ranks
            bundle = fs.read_file(path)
            for row in range(len(bundle)):
                sid = int(bundle.sample_ids[row])
                self.cache_sample(rank, sid, bundle.sample(row))
            files, nbytes = per_rank[rank]
            per_rank[rank] = (files + 1, nbytes + bundle.nbytes)
        return per_rank

    # -- queries --------------------------------------------------------------

    def __contains__(self, sample_id: int) -> bool:
        return sample_id in self._owner

    def owner_of(self, sample_id: int) -> int:
        return self._owner[sample_id]

    @property
    def num_cached(self) -> int:
        return len(self._owner)

    def shard_bytes(self, rank: int) -> int:
        return self._shard_bytes[rank]

    def occupancy_fraction(self) -> float:
        """Max shard occupancy relative to its budget (drives the
        cache-pressure penalty of the performance model)."""
        return max(self._shard_bytes) / self.bytes_per_rank

    # -- mini-batch exchange ----------------------------------------------------

    def fetch_batch(
        self,
        sample_ids: Sequence[int],
        field_names: Sequence[str] | None = None,
        fallback: Mapping[int, Mapping[str, np.ndarray]] | None = None,
        plan: "object | None" = None,
    ) -> dict[str, np.ndarray]:
        """Assemble a mini-batch from the shards.

        Each batch position is consumed by the rank
        ``consumer_ranks_for_batch`` assigns; a fetch whose owner differs
        from its consumer is a shuffle transfer (remote if the two ranks
        are on different nodes under the placement, or if no placement was
        given).  Returns stacked field arrays in batch order.

        ``fallback`` supplies samples not resident in the store (an
        evicting store may have dropped them); fallback samples count as
        neither local nor remote fetches — their cost is the file read the
        caller already performed.

        ``plan`` is the :class:`~repro.datastore.reader.BatchPlan` this
        fetch materializes, when there is one; its epoch/step are stamped
        into the ``datastore_fetch`` event so exchange accounting can be
        attributed per planned batch even when a prefetching pipeline
        fetches ahead of the training step that consumes it.

        When the attached hub is tracing, the whole assembly is one
        ``store_fetch`` span (nesting under the materialization span of
        whichever thread — trainer or prefetch producer — ran it),
        annotated with the batch's local/remote fetch split.
        """
        tracer = getattr(self.telemetry, "tracer", None)
        if tracer is None:
            return self._fetch_batch(sample_ids, field_names, fallback, plan)
        before = (self.stats.local_fetches, self.stats.remote_fetches)
        with tracer.span(
            "store_fetch", cat="data", batch_size=len(sample_ids)
        ) as span:
            batch = self._fetch_batch(sample_ids, field_names, fallback, plan)
            span.attrs["local_fetches"] = self.stats.local_fetches - before[0]
            span.attrs["remote_fetches"] = self.stats.remote_fetches - before[1]
        return batch

    def _fetch_batch(
        self,
        sample_ids: Sequence[int],
        field_names: Sequence[str] | None = None,
        fallback: Mapping[int, Mapping[str, np.ndarray]] | None = None,
        plan: "object | None" = None,
    ) -> dict[str, np.ndarray]:
        ids = np.asarray(sample_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("sample_ids must be a non-empty 1-D sequence")
        consumers = consumer_ranks_for_batch(ids.size, self.num_ranks)
        before = (
            self.stats.local_fetches,
            self.stats.remote_fetches,
            self.stats.local_bytes,
            self.stats.remote_bytes,
        )
        samples = []
        for pos, sid_np in enumerate(ids):
            sid = int(sid_np)
            if sid not in self._owner:
                if fallback is not None and sid in fallback:
                    samples.append(
                        {k: np.asarray(v) for k, v in fallback[sid].items()}
                    )
                    continue
                raise KeyError(f"sample {sid} is not cached in the data store")
            owner = self._owner[sid]
            shard = self._shards[owner]
            sample = shard[sid]
            if self.evicting:
                shard.move_to_end(sid)  # refresh LRU recency
            nbytes = sum(v.nbytes for v in sample.values())
            consumer = int(consumers[pos])
            if owner == consumer:
                self.stats.local_fetches += 1
                self.stats.local_bytes += nbytes
            else:
                same_node = (
                    self.placement.same_node(owner, consumer)
                    if self.placement is not None
                    else False
                )
                if same_node:
                    self.stats.local_fetches += 1
                    self.stats.local_bytes += nbytes
                else:
                    self.stats.remote_fetches += 1
                    self.stats.remote_bytes += nbytes
            samples.append(sample)
        if self.telemetry is not None:
            planned = {}
            if plan is not None:
                planned = {
                    "epoch": int(plan.epoch_index),
                    "step": int(plan.step_index),
                }
            self.telemetry.emit(
                "datastore_fetch",
                batch_size=int(ids.size),
                local_fetches=self.stats.local_fetches - before[0],
                remote_fetches=self.stats.remote_fetches - before[1],
                local_bytes=self.stats.local_bytes - before[2],
                remote_bytes=self.stats.remote_bytes - before[3],
                **planned,
            )
        names = list(field_names) if field_names else sorted(samples[0])
        batch = {}
        for name in names:
            batch[name] = np.stack([s[name] for s in samples], axis=0)
        return batch

