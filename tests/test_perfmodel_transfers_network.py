"""Unit tests for the transfer-time model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.gpus import V100
from repro.perfmodel.transfers import h2d_time, tile_bytes
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
        """The simulator prices a write-back (d2h) of a tile like its h2d:
        one link model, both directions."""
        import dataclasses

        from repro.core import two_precision_map
        from repro.core.solver import simulate_cholesky
        from repro.perfmodel.gpus import NodeSpec
        from repro.runtime import Platform

        nb = 128  # a 12-tile GPU forces evictions, hence write-backs
        gpu = dataclasses.replace(V100, memory_bytes=12 * nb * nb * 8)
        platform = Platform(NodeSpec("tight", gpu, 1, 256e9, 25e9, 1.5e-6), n_nodes=1)
        rep = simulate_cholesky(16 * nb, nb, two_precision_map(16, Precision.FP16_32), platform)
        links = [e for e in rep.trace.events if e.engine in ("h2d", "d2h")]
        assert {e.engine for e in links} == {"h2d", "d2h"}
        for e in links:
            assert e.t_end - e.t_start == pytest.approx(h2d_time(gpu, nb, e.precision), rel=1e-9)

    @given(st.integers(64, 8192))
    @settings(max_examples=30)
    def test_lower_precision_always_faster(self, nb):
        t64 = h2d_time(V100, nb, Precision.FP64)
        t32 = h2d_time(V100, nb, Precision.FP32)
        t16 = h2d_time(V100, nb, Precision.FP16)
        assert t16 < t32 < t64

    def test_latency_floor(self):
        assert h2d_time(V100, 1, Precision.FP16) >= V100.host_link_latency
