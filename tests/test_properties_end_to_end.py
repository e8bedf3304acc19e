"""Cross-cutting hypothesis property tests on system-level invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConversionStrategy,
    build_cholesky_dag,
    build_comm_precision_map,
    build_precision_map,
    simulate_cholesky,
    two_precision_map,
    uniform_map,
)
from repro.perfmodel.gpus import NodeSpec, V100
from repro.precision import Precision, bytes_per_element
from repro.runtime import Platform, execute_numeric
from repro.tiles import TiledSymmetricMatrix
from repro.tiles.norms import tile_norms


def _platform(n_gpus=1, n_nodes=1):
    node = NodeSpec("t", V100, n_gpus, 256e9, 25e9, 1.5e-6)
    return Platform(node=node, n_nodes=n_nodes)


@given(st.integers(2, 6), st.integers(0, 10**6), st.sampled_from([1e-2, 1e-6, 1e-10]))
@settings(max_examples=20, deadline=None)
def test_dag_equals_sequential_for_random_spd(nt, seed, accuracy):
    """PTG unrolling ≡ Algorithm 1, for arbitrary SPD inputs and maps."""
    from repro.core.cholesky import mp_cholesky

    rng = np.random.default_rng(seed)
    nb = 8
    n = nt * nb
    a = rng.standard_normal((n, n))
    mat = TiledSymmetricMatrix.from_dense(a @ a.T + 2 * n * np.eye(n), nb)
    kmap = build_precision_map(tile_norms(mat), accuracy)
    ref = mp_cholesky(mat, kmap).factor.lower_dense()
    out = execute_numeric(build_cholesky_dag(n, nb, kmap).graph, mat).lower_dense()
    assert np.array_equal(out, ref)


@given(st.integers(4, 8), st.integers(1, 4),
       st.sampled_from([Precision.FP16, Precision.FP16_32, Precision.FP32]))
@settings(max_examples=15, deadline=None)
def test_stc_never_slower_or_heavier(nt, n_gpus, low):
    """STC dominates TTC in time, bytes, and conversion count.

    NT ≥ 4 so each panel broadcast feeds GEMMs: with no fan-out (NT = 2)
    STC's one sender conversion is not amortised and its conversion
    *count* can exceed TTC's by one while time still wins.
    """
    nb = 512
    kmap = two_precision_map(nt, low)
    plat = _platform(n_gpus)
    stc = simulate_cholesky(nt * nb, nb, kmap, plat, strategy=ConversionStrategy.AUTO,
                            record_events=False)
    ttc = simulate_cholesky(nt * nb, nb, kmap, plat, strategy=ConversionStrategy.TTC,
                            record_events=False)
    assert stc.makespan <= ttc.makespan * 1.0001
    assert stc.stats.link_bytes("h2d") <= ttc.stats.link_bytes("h2d") * 1.0001
    assert stc.stats.n_conversions <= ttc.stats.n_conversions


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_payload_bytes_never_exceed_storage(nt, seed):
    """No dataflow edge carries more bytes than the tile's storage form."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(
        [int(Precision.FP64), int(Precision.FP32), int(Precision.FP16_32),
         int(Precision.FP16)],
        size=(nt, nt),
    ).astype(np.int8)
    codes = np.maximum(codes, codes.T)
    np.fill_diagonal(codes, int(Precision.FP64))
    from repro.core.precision_map import KernelPrecisionMap

    kmap = KernelPrecisionMap(nt=nt, codes=codes)
    dag = build_cholesky_dag(nt * 64, 64, kmap, strategy=ConversionStrategy.AUTO)
    for task in dag.graph:
        for inp in task.inputs:
            assert bytes_per_element(inp.payload_precision) <= bytes_per_element(
                inp.storage_precision
            )


@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_simulation_conservation_laws(nt, gpus, nodes):
    """Makespan bounds and byte conservation hold for any platform shape."""
    nb = 256
    kmap = uniform_map(nt, Precision.FP64)
    plat = _platform(gpus, nodes)
    rep = simulate_cholesky(nt * nb, nb, kmap, plat, record_events=True)
    # all tasks ran
    n_tasks = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
    assert rep.stats.n_tasks == n_tasks
    # makespan at least the per-rank serial compute max
    busy = max(
        rep.trace.busy_seconds("compute", r) for r in range(plat.n_ranks)
    )
    assert rep.makespan >= busy * 0.999
    # every h2d byte is accounted in the per-precision split
    assert rep.stats.link_bytes("h2d") == sum(rep.stats.to_dict()["h2d_bytes_by_precision"].values())
    # single node never touches the NIC
    if nodes == 1:
        assert rep.stats.link_bytes("nic") == 0


@given(st.integers(0, 10**6), st.sampled_from([1e-3, 1e-6]))
@settings(max_examples=10, deadline=None)
def test_factor_storage_respects_map(seed, accuracy):
    """Factor tiles rest in the dtype their kernel precision dictates."""
    rng = np.random.default_rng(seed)
    n, nb = 64, 8
    a = rng.standard_normal((n, n))
    mat = TiledSymmetricMatrix.from_dense(a @ a.T + 2 * n * np.eye(n), nb)
    kmap = build_precision_map(tile_norms(mat), accuracy)
    from repro.core.cholesky import mp_cholesky

    res = mp_cholesky(mat, kmap)
    for i in range(kmap.nt):
        for j in range(i + 1):
            tile = res.factor.tiles[(i, j)]
            if i == j:
                assert tile.dtype == np.float64
            else:
                expected = np.float64 if kmap.kernel(i, j) == Precision.FP64 else np.float32
                assert tile.dtype == expected
