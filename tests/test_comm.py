"""Tests for the communication substrate: topology and cost models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.costmodel import CollectiveCostModel, LinkParams
from repro.comm.topology import RankPlacement, contiguous_placement

INTRA = LinkParams(latency=1e-6, bandwidth=75e9)
INTER = LinkParams(latency=2e-6, bandwidth=25e9)
MODEL = CollectiveCostModel(INTRA, INTER)


class TestPlacement:
    def test_contiguous_packing(self):
        p = contiguous_placement(16, 4)
        assert p.num_ranks == 16 and p.num_nodes == 4
        assert p.ranks_on_node(0) == [0, 1, 2, 3]
        assert p.node_of[15] == 3

    def test_one_rank_per_node(self):
        p = contiguous_placement(8, 1)
        assert p.num_nodes == 8
        assert p.max_ranks_per_node == 1

    def test_same_node(self):
        p = contiguous_placement(8, 4)
        assert p.same_node(0, 3)
        assert not p.same_node(3, 4)

    def test_remote_fraction(self):
        p = contiguous_placement(16, 4)
        assert p.remote_fraction(0) == pytest.approx(12 / 15)
        single = contiguous_placement(1, 1)
        assert single.remote_fraction(0) == 0.0
        flat = contiguous_placement(4, 1)
        assert flat.remote_fraction(2) == 1.0

    def test_dense_node_ids_enforced(self):
        with pytest.raises(ValueError):
            RankPlacement((0, 2))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            contiguous_placement(0, 4)
        with pytest.raises(ValueError):
            contiguous_placement(4, 0)


class TestLinkParams:
    def test_transfer_time(self):
        assert INTER.transfer_time(25e9) == pytest.approx(1.0 + 2e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(-1, 1)
        with pytest.raises(ValueError):
            LinkParams(0, 0)
        with pytest.raises(ValueError):
            INTER.transfer_time(-5)


class TestAllreduceModel:
    def test_single_rank_free(self):
        assert MODEL.allreduce_time(1e9, contiguous_placement(1, 1)) == 0.0

    def test_zero_bytes_free(self):
        assert MODEL.allreduce_time(0, contiguous_placement(8, 4)) == 0.0

    def test_single_node_ring(self):
        p = contiguous_placement(4, 4)
        b = 400e6
        expected = 2 * 3 * INTRA.latency + 2 * (3 / 4) * b / INTRA.bandwidth
        assert MODEL.allreduce_time(b, p) == pytest.approx(expected)

    def test_flat_internode_ring(self):
        p = contiguous_placement(16, 1)
        b = 400e6
        expected = 2 * 15 * INTER.latency + 2 * (15 / 16) * b / INTER.bandwidth
        assert MODEL.allreduce_time(b, p) == pytest.approx(expected)

    def test_hierarchical_combines_both_levels(self):
        p = contiguous_placement(16, 4)
        b = 400e6
        intra = 2 * 3 * INTRA.latency + 2 * (3 / 4) * b / INTRA.bandwidth
        inter = 2 * 3 * INTER.latency + 2 * (3 / 4) * b / INTER.bandwidth
        assert MODEL.allreduce_time(b, p) == pytest.approx(intra + inter)

    def test_nvlink_cheaper_than_ib_for_same_ranks(self):
        b = 100e6
        one_node = MODEL.allreduce_time(b, contiguous_placement(4, 4))
        four_nodes = MODEL.allreduce_time(b, contiguous_placement(4, 1))
        assert one_node < four_nodes

    @given(st.integers(2, 64), st.floats(1e3, 1e9))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_bytes(self, ranks, nbytes):
        p = contiguous_placement(ranks, min(4, ranks))
        assert MODEL.allreduce_time(nbytes * 2, p) >= MODEL.allreduce_time(nbytes, p)


class TestOtherCollectives:
    def test_bcast_log_scaling(self):
        b = 1e6
        t4 = MODEL.bcast_time(b, contiguous_placement(4, 1))
        t16 = MODEL.bcast_time(b, contiguous_placement(16, 1))
        # log2(16)/log2(4) = 2x stages
        assert t16 == pytest.approx(2 * t4)

    def test_shuffle_zero_cases(self):
        assert MODEL.shuffle_time(0, contiguous_placement(8, 4)) == 0.0
        assert MODEL.shuffle_time(1e6, contiguous_placement(1, 1)) == 0.0

    def test_shuffle_nic_sharing(self):
        """More ranks per node -> more bytes through the shared NIC."""
        recv = 10e6
        t_packed = MODEL.shuffle_time(recv, contiguous_placement(16, 4))
        t_spread = MODEL.shuffle_time(recv, contiguous_placement(16, 1))
        assert t_packed > t_spread

    def test_model_exchange(self):
        assert MODEL.model_exchange_time(0) == 0.0
        assert MODEL.model_exchange_time(25e9) == pytest.approx(1.0 + 2e-6)
        with pytest.raises(ValueError):
            MODEL.model_exchange_time(-1)

