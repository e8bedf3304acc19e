"""Unit tests for the transfer-time model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.gpus import SUMMIT_NODE, V100
from repro.perfmodel.transfers import (
    d2h_time,
    h2d_time,
    host_copy_time,
    tile_bytes,
)
from repro.precision import Precision


class TestTileBytes:
    def test_fp64_tile(self):
        assert tile_bytes(2048, Precision.FP64) == 2048 * 2048 * 8

    def test_precision_halving(self):
        n = 1024
        assert tile_bytes(n, Precision.FP32) == tile_bytes(n, Precision.FP64) // 2
        assert tile_bytes(n, Precision.FP16) == tile_bytes(n, Precision.FP64) // 4


class TestTransferTimes:
    def test_table2_move_anchor(self):
        """Tile-move times reproduce Table II within 5 %."""
        assert h2d_time(V100, 2048, Precision.FP64) * 1e3 == pytest.approx(0.67, rel=0.05)
        assert h2d_time(V100, 10240, Precision.FP16) * 1e3 == pytest.approx(4.19, rel=0.05)

    def test_symmetric_link(self):
        assert h2d_time(V100, 4096, Precision.FP32) == d2h_time(V100, 4096, Precision.FP32)

    @given(st.integers(64, 8192))
    @settings(max_examples=30)
    def test_lower_precision_always_faster(self, nb):
        t64 = h2d_time(V100, nb, Precision.FP64)
        t32 = h2d_time(V100, nb, Precision.FP32)
        t16 = h2d_time(V100, nb, Precision.FP16)
        assert t16 < t32 < t64

    def test_latency_floor(self):
        assert h2d_time(V100, 1, Precision.FP16) >= V100.host_link_latency

    def test_host_copy(self):
        t = host_copy_time(SUMMIT_NODE, 1e9)
        assert t == pytest.approx(1e9 / SUMMIT_NODE.cpu_memory_bandwidth)
