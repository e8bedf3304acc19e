"""Second round of hypothesis property tests across subsystems."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_comm_precision_map,
    build_precision_map,
    two_precision_map,
    uniform_map,
)
from repro.core.precision_map import KernelPrecisionMap
from repro.geostats.covariance import Matern, SquaredExponential
from repro.perfmodel.analytic import analytic_cholesky
from repro.perfmodel.gpus import SUMMIT_NODE
from repro.precision import ADAPTIVE_FORMATS, Precision
from repro.runtime.platform import Platform
from repro.tlr.compression import LowRankTile, compress, recompress


@given(st.integers(4, 64), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_analytic_monotone_in_precision(nt, seed):
    """For any NT and node count, lower precision is never slower."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(1, 9))
    plat = Platform(node=SUMMIT_NODE, n_nodes=nodes)
    nb = 2048
    t64 = analytic_cholesky(nt * nb, nb, uniform_map(nt, Precision.FP64), plat).seconds
    t32 = analytic_cholesky(nt * nb, nb, uniform_map(nt, Precision.FP32), plat).seconds
    t16 = analytic_cholesky(nt * nb, nb, two_precision_map(nt, Precision.FP16), plat).seconds
    assert t16 <= t32 * 1.0001 <= t64 * 1.0002


@given(st.integers(2, 20), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_random_map_comm_idempotent_under_composition(nt, seed):
    """Re-deriving the comm map from itself-as-kernel-map only lowers it.

    The comm precision is a lower bound on what successors need; feeding
    it back as a (fictitious) kernel map cannot raise any entry above the
    original storage precision.
    """
    rng = np.random.default_rng(seed)
    codes = rng.choice([int(p) for p in ADAPTIVE_FORMATS], size=(nt, nt)).astype(np.int8)
    codes = np.maximum(codes, codes.T)
    np.fill_diagonal(codes, int(Precision.FP64))
    kmap = KernelPrecisionMap(nt=nt, codes=codes)
    cmap = build_comm_precision_map(kmap)
    for i in range(nt):
        for j in range(i + 1):
            assert cmap.comm(i, j) <= cmap.storage(i, j)


@given(
    st.sampled_from(["sqexp", "matern"]),
    st.floats(0.02, 0.5),
    st.integers(0, 10**6),
)
@settings(max_examples=20, deadline=None)
def test_covariance_tile_norms_decay_gives_monotone_budget(kind, beta, seed):
    """Precision maps from real covariances: tightening u_req never
    lowers any tile's precision (monotone refinement)."""
    from repro.geostats.generator import build_tiled_covariance
    from repro.geostats.locations import generate_locations
    from repro.tiles.norms import tile_norms

    rng = np.random.default_rng(seed)
    locs = generate_locations(96, 2, seed=int(rng.integers(0, 1000)))
    model = SquaredExponential(dim=2) if kind == "sqexp" else Matern(dim=2)
    theta = (1.0, beta) if kind == "sqexp" else (1.0, beta, 0.5)
    cov = build_tiled_covariance(locs, model, theta, 16)
    norms = tile_norms(cov)
    prev = None
    for acc in (1e-2, 1e-5, 1e-8, 1e-11):
        kmap = build_precision_map(norms, acc)
        if prev is not None:
            assert np.all(kmap.codes >= prev.codes)
        prev = kmap


@given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 6),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tlr_recompress_never_increases_error_bound(m, n, r, seed):
    """Recompression at tol keeps ‖ΔA‖₂ ≤ tol·‖A‖₂ and never grows rank."""
    rng = np.random.default_rng(seed)
    lr = LowRankTile(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    dense = lr.to_dense()
    for tol in (1e-12, 1e-3):
        out = recompress(lr, tol)
        assert out.rank <= lr.rank
        err = np.linalg.norm(out.to_dense() - dense, 2)
        ref = np.linalg.norm(dense, 2)
        assert err <= max(tol * ref * 1.01, 1e-12)


@given(st.integers(3, 24), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_compress_roundtrip_exact_for_lowrank_input(n, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, max(2, n // 2)))
    u = rng.standard_normal((n, r))
    v = rng.standard_normal((n, r))
    dense = u @ v.T
    lr = compress(dense, 1e-12)
    assert lr.rank <= r
    assert np.linalg.norm(lr.to_dense() - dense) <= 1e-8 * (1 + np.linalg.norm(dense))


@given(st.integers(1, 500))
@settings(max_examples=50)
def test_platform_rank_mapping_bijective(nprocs):
    """Every node hosts exactly one rank per GPU slot, and no rank lies outside."""
    plat = Platform(node=SUMMIT_NODE, n_nodes=max(1, nprocs // 6 + 1))
    hosted = Counter(plat.node_of(rank) for rank in range(plat.n_ranks))
    assert hosted == dict.fromkeys(range(plat.n_nodes), plat.node.gpus_per_node)
    with pytest.raises(ValueError):
        plat.node_of(plat.n_ranks)