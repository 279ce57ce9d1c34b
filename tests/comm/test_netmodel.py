"""Tests for the interconnect models."""

import pytest

from repro.comm.netmodel import (
    GEMINI,
    IB_QDR_CUDA_AWARE,
    IB_QDR_STAGED,
    NetworkModel,
)


class TestMessageTime:
    def test_latency_dominates_small_messages(self):
        net = IB_QDR_CUDA_AWARE
        t = net.message_time(8)
        assert t == pytest.approx(net.latency_s, rel=0.01)

    def test_bandwidth_dominates_large_messages(self):
        net = IB_QDR_CUDA_AWARE
        nbytes = 64 * 1024 * 1024
        t = net.message_time(nbytes)
        assert t == pytest.approx(nbytes / net.bandwidth, rel=0.01)

    def test_monotone_in_size(self):
        net = GEMINI
        prev = 0.0
        for nbytes in (1, 100, 10_000, 1_000_000):
            t = net.message_time(nbytes)
            assert t > prev
            prev = t

    def test_staging_penalty(self):
        """Non-CUDA-aware MPI pays two PCIe hops per message."""
        nbytes = 1 << 20
        aware = IB_QDR_CUDA_AWARE.message_time(nbytes)
        staged = IB_QDR_STAGED.message_time(nbytes)
        expected_extra = 2 * (IB_QDR_STAGED.pcie_latency_s
                              + nbytes / IB_QDR_STAGED.pcie_bandwidth)
        assert staged - aware == pytest.approx(expected_extra, rel=1e-9)

    def test_custom_model(self):
        net = NetworkModel(name="x", latency_s=1e-6, bandwidth=1e9)
        assert net.message_time(1_000_000) == pytest.approx(1e-6 + 1e-3)


class TestEdgeCases:
    def test_zero_byte_message_is_pure_latency(self):
        net = IB_QDR_CUDA_AWARE
        assert net.message_time(0) == net.latency_s
        staged = IB_QDR_STAGED
        assert staged.message_time(0) == (staged.latency_s
                                          + 2 * staged.pcie_latency_s)
