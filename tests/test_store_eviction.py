"""Tests for the evicting (partial-caching) data store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.filesystem import SimulatedFilesystem
from repro.datastore.bundle import write_bundles
from repro.datastore.reader import StoreReader
from repro.datastore.store import DistributedDataStore, InsufficientMemoryError


def sample_of(value: int, nbytes: int = 400):
    return {"x": np.full(nbytes // 4, value, dtype=np.float32)}


class TestEvictingStore:
    def test_lru_eviction_order(self):
        store = DistributedDataStore(1, bytes_per_rank=1200, evicting=True)
        for sid in range(3):  # fills the budget exactly
            store.cache_sample(0, sid, sample_of(sid))
        store.fetch_batch([0])  # touch 0: now 1 is the LRU victim
        store.cache_sample(0, 3, sample_of(3))
        assert 1 not in store
        assert 0 in store and 2 in store and 3 in store
        assert store.stats.evictions == 1

    def test_non_evicting_still_raises(self):
        store = DistributedDataStore(1, bytes_per_rank=800, evicting=False)
        store.cache_sample(0, 0, sample_of(0))
        store.cache_sample(0, 1, sample_of(1))
        with pytest.raises(InsufficientMemoryError):
            store.cache_sample(0, 2, sample_of(2))

    def test_oversized_sample_rejected_even_when_evicting(self):
        store = DistributedDataStore(1, bytes_per_rank=100, evicting=True)
        with pytest.raises(InsufficientMemoryError):
            store.cache_sample(0, 0, sample_of(0, nbytes=400))

    def test_budget_respected_under_churn(self):
        store = DistributedDataStore(2, bytes_per_rank=2000, evicting=True)
        for sid in range(40):
            store.cache_sample(sid % 2, sid, sample_of(sid))
        assert store.shard_bytes(0) <= 2000
        assert store.shard_bytes(1) <= 2000
        assert store.num_cached < 40

    def test_preload_with_eviction_is_config_error(self):
        fs = SimulatedFilesystem()
        paths = write_bundles(
            fs, {"x": np.zeros((20, 4), dtype=np.float32)}, samples_per_bundle=10
        )
        store = DistributedDataStore(1, bytes_per_rank=10**6, evicting=True)
        with pytest.raises(ValueError):
            store.preload(fs, paths)

    def test_dynamic_reader_partial_caching_rereads_misses(self):
        """Over-capacity dynamic store keeps training: evicted samples are
        re-read from the file system on later epochs (partial caching)."""
        fs = SimulatedFilesystem()
        n = 100
        fields = {"x": np.arange(n, dtype=np.float32).reshape(n, 1)}
        paths = write_bundles(fs, fields, samples_per_bundle=10)
        # Budget holds ~40 of the 100 samples.
        per_sample = 4  # one float32 each
        store = DistributedDataStore(
            2, bytes_per_rank=20 * per_sample, evicting=True
        )
        reader = StoreReader(
            fs, paths, 10, np.arange(n), np.random.default_rng(0), store, "dynamic"
        )
        for _ in reader.epoch(10):
            pass
        opens_epoch0 = fs.stats.opens
        for mb in reader.epoch(10):
            np.testing.assert_array_equal(
                mb.feeds["x"][:, 0], mb.sample_ids.astype(np.float32)
            )
        # Unlike the fully cached store, later epochs still read files.
        assert fs.stats.opens > opens_epoch0
        assert store.stats.evictions > 0

    def test_fetch_rereads_hits_evicted_by_same_batch(self):
        """Caching a batch's misses can evict that very batch's hits; the
        ``still_missing`` second file pass in ``StoreReader._fetch`` must
        re-read the casualties so the batch always assembles."""
        fs = SimulatedFilesystem()
        n = 4
        fields = {"x": np.arange(n, dtype=np.float32).reshape(n, 1)}
        paths = write_bundles(fs, fields, samples_per_bundle=n)
        # One rank, budget of exactly two one-float32 samples.
        store = DistributedDataStore(1, bytes_per_rank=8, evicting=True)
        reader = StoreReader(
            fs, paths, n, np.arange(n), np.random.default_rng(0), store,
            "dynamic",
        )
        feeds = reader._fetch(np.array([0, 1]))
        np.testing.assert_array_equal(feeds["x"][:, 0], [0.0, 1.0])
        assert 0 in store and 1 in store
        opens_before = fs.stats.opens
        # Misses 2 and 3 fill the shard, evicting hits 0 and 1 mid-batch.
        feeds = reader._fetch(np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(feeds["x"][:, 0], [0.0, 1.0, 2.0, 3.0])
        assert store.stats.evictions == 2
        assert 0 not in store and 1 not in store
        assert 2 in store and 3 in store
        # Both file passes ran: misses first, then the evicted casualties.
        assert fs.stats.opens >= opens_before + 2

