"""Tests for the distributed data store stack: bundles, partitioning,
the store itself, and the readers.

The headline invariants come straight from the paper:

- preload opens each bundle exactly once, by exactly one rank;
- after population (either mode), *no data is read from the file system*;
- the naive reader re-reads files every epoch and hits the same file from
  many batches;
- shards are capacity-limited and ownership is disjoint and exhaustive.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.filesystem import SimulatedFilesystem
from repro.comm.topology import contiguous_placement
from repro.datastore.bundle import Bundle, bundle_paths_for, write_bundles
from repro.datastore.partition import partition_indices, partition_items
from repro.datastore.reader import ArrayReader, NaiveReader, StoreReader
from repro.datastore.store import (
    DistributedDataStore,
    InsufficientMemoryError,
    consumer_ranks_for_batch,
)


def make_fields(n=200, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.normal(size=(n, dim)).astype(np.float32),
        "tag": np.arange(n, dtype=np.float32).reshape(n, 1),
    }


def make_fs_with_bundles(n=200, spb=20, seed=0):
    fs = SimulatedFilesystem()
    fields = make_fields(n, seed=seed)
    paths = write_bundles(fs, fields, samples_per_bundle=spb)
    return fs, fields, paths


class TestBundle:
    def test_columnar_access(self):
        ids = np.arange(10, 20)
        b = Bundle(ids, {"x": np.arange(10).reshape(10, 1)})
        assert len(b) == 10
        assert b.sample(3)["x"][0] == 3
        with pytest.raises(IndexError):
            b.sample(10)

    def test_rows_for(self):
        b = Bundle(np.array([5, 7, 9]), {"x": np.array([[50], [70], [90]])})
        rows = b.rows_for(np.array([9, 5]))
        np.testing.assert_array_equal(b.sample_ids[rows], [9, 5])
        with pytest.raises(KeyError):
            b.rows_for(np.array([6]))

    def test_field_length_mismatch(self):
        with pytest.raises(ValueError):
            Bundle(np.arange(3), {"x": np.zeros((4, 1))})

    def test_write_bundles_layout(self):
        fs, fields, paths = make_fs_with_bundles(n=95, spb=20)
        assert len(paths) == 5  # last bundle short
        first = fs.read_file(paths[0])
        last = fs.read_file(paths[-1])
        assert len(first) == 20 and len(last) == 15
        np.testing.assert_array_equal(last.sample_ids, np.arange(80, 95))
        # Generation order is preserved.
        np.testing.assert_array_equal(
            first.fields["tag"][:, 0], np.arange(20, dtype=np.float32)
        )

    def test_write_bundles_validation(self):
        fs = SimulatedFilesystem()
        with pytest.raises(ValueError):
            write_bundles(fs, {"x": np.zeros((0, 1))}, 10)
        with pytest.raises(ValueError):
            write_bundles(fs, {"x": np.zeros((5, 1)), "y": np.zeros((6, 1))}, 10)

    def test_bundle_paths_sorted(self):
        paths = bundle_paths_for("p", 12)
        assert paths == sorted(paths)
        assert len(set(paths)) == 12


class TestPartition:
    @pytest.mark.parametrize("mode", ["contiguous", "strided", "random"])
    def test_disjoint_and_exhaustive(self, mode):
        rng = np.random.default_rng(0)
        parts = partition_indices(103, 7, mode=mode, rng=rng)
        allidx = np.concatenate(parts)
        assert len(allidx) == 103
        assert len(np.unique(allidx)) == 103
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_blocks_are_ranges(self):
        parts = partition_indices(10, 2, mode="contiguous")
        np.testing.assert_array_equal(parts[0], np.arange(5))
        np.testing.assert_array_equal(parts[1], np.arange(5, 10))

    def test_strided_interleaves(self):
        parts = partition_indices(9, 3, mode="strided")
        np.testing.assert_array_equal(parts[1], [1, 4, 7])

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            partition_indices(10, 2, mode="random")

    def test_partition_items(self):
        items = list("abcdef")
        parts = partition_items(items, 3)
        assert parts == [["a", "b"], ["c", "d"], ["e", "f"]]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_indices(5, 6)
        with pytest.raises(ValueError):
            partition_indices(5, 0)

    @given(st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, k):
        if k > n:
            return
        parts = partition_indices(n, k, mode="strided")
        assert sum(len(p) for p in parts) == n


class TestConsumerMapping:
    def test_contiguous_blocks(self):
        np.testing.assert_array_equal(
            consumer_ranks_for_batch(8, 4), [0, 0, 1, 1, 2, 2, 3, 3]
        )

    def test_uneven(self):
        consumers = consumer_ranks_for_batch(10, 4)
        assert consumers.min() == 0 and consumers.max() == 3

    def test_single_rank(self):
        assert np.all(consumer_ranks_for_batch(5, 1) == 0)


class TestDistributedDataStore:
    def test_preload_opens_each_file_once(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(4, 10**7)
        report = store.preload(fs, paths)
        assert fs.stats.opens == len(paths)
        assert all(count == 1 for count in fs.stats.opens_per_file.values())
        assert store.num_cached == 200
        # Round-robin file assignment.
        assert report[0][0] == len(paths) // 4 + (1 if len(paths) % 4 else 0)

    def test_ownership_disjoint_and_exhaustive(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(4, 10**7)
        store.preload(fs, paths)
        owners = [store.owner_of(s) for s in range(200)]
        assert set(owners) == {0, 1, 2, 3}

    def test_capacity_enforced(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(4, bytes_per_rank=100)
        with pytest.raises(InsufficientMemoryError):
            store.preload(fs, paths)

    def test_cache_sample_idempotent(self):
        store = DistributedDataStore(2, 10**6)
        sample = {"x": np.ones(4, dtype=np.float32)}
        store.cache_sample(0, 7, sample)
        store.cache_sample(1, 7, sample)  # second insert ignored
        assert store.owner_of(7) == 0
        assert store.num_cached == 1

    def test_fetch_batch_order_and_stats(self):
        fs, fields, paths = make_fs_with_bundles()
        placement = contiguous_placement(4, 2)
        store = DistributedDataStore(4, 10**7, placement=placement)
        store.preload(fs, paths)
        ids = np.array([3, 100, 42, 199])
        batch = store.fetch_batch(ids)
        np.testing.assert_array_equal(batch["tag"][:, 0], ids.astype(np.float32))
        assert store.stats.total_fetches == 4

    def test_fetch_unknown_sample(self):
        store = DistributedDataStore(2, 10**6)
        with pytest.raises(KeyError):
            store.fetch_batch([0])

    def test_occupancy_fraction(self):
        store = DistributedDataStore(2, 1000)
        store.cache_sample(0, 0, {"x": np.zeros(100, dtype=np.float32)})  # 400 B
        assert store.occupancy_fraction() == pytest.approx(0.4)

    def test_placement_rank_mismatch(self):
        with pytest.raises(ValueError):
            DistributedDataStore(4, 100, placement=contiguous_placement(2, 2))

    def test_remote_fraction_counts_cross_node_only(self):
        placement = contiguous_placement(4, 4)  # all same node
        store = DistributedDataStore(4, 10**7, placement=placement)
        for s in range(8):
            store.cache_sample(s % 4, s, {"x": np.ones(2, dtype=np.float32)})
        store.fetch_batch(list(range(8)))
        assert store.stats.remote_fetches == 0  # same node => local

    def test_per_rank_bytes_tracks_shard_occupancy(self):
        store = DistributedDataStore(3, 10**6)
        assert store.stats.per_rank_bytes == [0, 0, 0]
        store.cache_sample(0, 0, {"x": np.zeros(10, dtype=np.float32)})  # 40 B
        store.cache_sample(0, 1, {"x": np.zeros(10, dtype=np.float32)})
        store.cache_sample(2, 2, {"x": np.zeros(5, dtype=np.float32)})  # 20 B
        assert store.stats.per_rank_bytes == [80, 0, 20]
        assert store.stats.per_rank_bytes == [
            store.shard_bytes(r) for r in range(3)
        ]
        assert sum(store.stats.per_rank_bytes) == store.stats.cached_bytes

    def test_per_rank_bytes_tracks_evictions(self):
        # Budget fits exactly two 40-byte samples per rank.
        store = DistributedDataStore(2, bytes_per_rank=80, evicting=True)
        for s in range(3):
            store.cache_sample(0, s, {"x": np.zeros(10, dtype=np.float32)})
        assert store.stats.evictions == 1
        assert store.stats.per_rank_bytes == [80, 0]
        assert store.stats.per_rank_bytes[0] == store.shard_bytes(0)


class TestReaders:
    def test_array_reader_epoch_covers_population(self):
        fields = make_fields(n=64)
        reader = ArrayReader(fields, np.arange(64), np.random.default_rng(0))
        seen = []
        for mb in reader.epoch(16):
            seen.extend(mb.sample_ids.tolist())
            np.testing.assert_array_equal(
                mb.feeds["tag"][:, 0], mb.sample_ids.astype(np.float32)
            )
        assert sorted(seen) == list(range(64))
        assert reader.epochs_completed == 1

    def test_epoch_shuffles_differently(self):
        fields = make_fields(n=64)
        reader = ArrayReader(fields, np.arange(64), np.random.default_rng(0))
        first = [mb.sample_ids.tolist() for mb in reader.epoch(64)]
        second = [mb.sample_ids.tolist() for mb in reader.epoch(64)]
        assert first != second

    def test_drop_last(self):
        fields = make_fields(n=50)
        reader = ArrayReader(fields, np.arange(50), np.random.default_rng(0))
        assert reader.steps_per_epoch(16, drop_last=True) == 3
        assert reader.steps_per_epoch(16, drop_last=False) == 4

    def test_batch_too_large(self):
        fields = make_fields(n=10)
        reader = ArrayReader(fields, np.arange(10), np.random.default_rng(0))
        with pytest.raises(ValueError):
            list(reader.epoch(11))

    def test_negative_sample_ids_rejected(self):
        # Negative ids would silently index from the end of the field
        # arrays; the constructor rejects them like out-of-range ids.
        fields = make_fields(n=10)
        with pytest.raises(ValueError, match="non-negative"):
            ArrayReader(fields, np.array([0, -1, 2]), np.random.default_rng(0))

    def test_naive_reader_reopens_every_epoch(self):
        fs, _, paths = make_fs_with_bundles()
        reader = NaiveReader(fs, paths, 20, np.arange(200), np.random.default_rng(1))
        for _ in reader.epoch(25):
            pass
        opens_first = fs.stats.opens
        assert opens_first > len(paths)  # many re-opens within the epoch
        for _ in reader.epoch(25):
            pass
        assert fs.stats.opens > opens_first  # and again next epoch

    def test_store_reader_preload_serves_from_memory(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(4, 10**7)
        reader = StoreReader(
            fs, paths, 20, np.arange(200), np.random.default_rng(2), store, "preload"
        )
        baseline_opens = fs.stats.opens
        for mb in reader.epoch(25):
            assert mb.feeds["x"].shape == (25, 3)
        assert fs.stats.opens == baseline_opens  # THE invariant

    def test_store_reader_dynamic_stops_reading_after_epoch0(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(4, 10**7)
        reader = StoreReader(
            fs, paths, 20, np.arange(200), np.random.default_rng(3), store, "dynamic"
        )
        for _ in reader.epoch(25):
            pass
        opens_epoch0 = fs.stats.opens
        assert opens_epoch0 > 0
        assert store.num_cached == 200
        for _ in reader.epoch(25):
            pass
        assert fs.stats.opens == opens_epoch0  # nothing read after epoch 0

    def test_store_reader_partial_population_subset(self):
        """A reader over a subset only preloads the bundles it needs."""
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(2, 10**7)
        StoreReader(
            fs, paths, 20, np.arange(40), np.random.default_rng(4), store, "preload"
        )
        assert fs.stats.opens == 2  # samples 0..39 live in bundles 0 and 1

    def test_store_reader_bad_mode(self):
        fs, _, paths = make_fs_with_bundles()
        store = DistributedDataStore(2, 10**7)
        with pytest.raises(ValueError):
            StoreReader(
                fs, paths, 20, np.arange(10), np.random.default_rng(0), store, "weird"
            )

    def test_readers_reproducible_given_seed(self):
        fields = make_fields(n=64)
        r1 = ArrayReader(fields, np.arange(64), np.random.default_rng(9))
        r2 = ArrayReader(fields, np.arange(64), np.random.default_rng(9))
        ids1 = [mb.sample_ids.tolist() for mb in r1.epoch(16)]
        ids2 = [mb.sample_ids.tolist() for mb in r2.epoch(16)]
        assert ids1 == ids2
