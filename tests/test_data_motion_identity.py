"""Data motion as an identity: the simulator against exact counts.

On one GPU with unbounded memory nothing is ever evicted and nothing
crosses a NIC, so the bytes and conversions of a run follow from the
kernel map, its communication map and the strategy alone:

* every lower tile crosses h2d exactly once — its generated version,
  read at storage precision by its first writer — at its real element
  count (the last tile row/column is ragged when ``nb ∤ n``);
* the STC site converts once per broadcasting tile whose payload
  encoding differs from its storage encoding;
* the TTC site converts once per task input whose encoding differs from
  what the task's kernel reads there.

:func:`exact_motion` counts both from the maps, with no DAG and no
simulator; the tests require equality (no band) with
``RunStats.bytes_moved`` and ``RunStats.conversions_by_site``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConversionStrategy
from repro.core.conversion import build_comm_precision_map, needs_conversion, payload_encoding
from repro.core.precision_map import KernelPrecisionMap, band_precision_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.precision.formats import ADAPTIVE_FORMATS, bytes_per_element
from repro.runtime.platform import Platform
from repro.runtime.tracing import LINKS
from repro.tiles.kernels import trsm_execution_precision

FP16, FP64 = Precision.FP16, Precision.FP64


def exact_motion(
    n: int, nb: int, kmap: KernelPrecisionMap, strategy: ConversionStrategy
) -> tuple[dict[Precision, int], dict[str, int]]:
    """``(h2d bytes per precision, conversions per site)`` of the tile
    Cholesky of ``kmap`` on one GPU with unbounded memory."""
    nt = kmap.nt
    cmap = build_comm_precision_map(kmap)
    edge = [min(n, (t + 1) * nb) - t * nb for t in range(nt)]
    kernel, storage = kmap.kernel, cmap.storage

    def payload(i: int, j: int) -> Precision:
        return cmap.payload(i, j, strategy)

    def at_rest(i: int, j: int, k: int) -> Precision:
        """Encoding iteration ``k`` reads tile (i, j) in: the generated tile
        at ``k == 0``; afterwards what its last GEMM left, which is FP16
        for an FP16 accumulator and the storage precision otherwise."""
        return FP16 if k and kernel(i, j) == FP16 else storage(i, j)

    h2d: Counter = Counter()
    for i in range(nt):
        for j in range(i + 1):
            h2d[storage(i, j)] += edge[i] * edge[j] * bytes_per_element(storage(i, j))

    # POTRF(NT-1) broadcasts nothing
    stc = sum(
        payload_encoding(payload(m, k)) != payload_encoding(storage(m, k))
        for m in range(nt) for k in range(m + 1) if k < nt - 1
    )
    # POTRF and SYRK accumulate in FP64 on FP64 tiles: only their "in"
    # operands can convert
    ttc = 0
    for k in range(nt):
        for m in range(k + 1, nt):
            trsm = trsm_execution_precision(kernel(m, k))
            ttc += needs_conversion(payload(k, k), trsm, "in")
            ttc += needs_conversion(at_rest(m, k, k), trsm, "inout")
            ttc += needs_conversion(payload(m, k), FP64, "in")  # SYRK(m, k)
            for nn in range(k + 1, m):
                gemm = kernel(m, nn)
                ttc += needs_conversion(payload(m, k), gemm, "in")
                ttc += needs_conversion(payload(nn, k), gemm, "in")
                ttc += needs_conversion(at_rest(m, nn, k), gemm, "inout")
    sites = {site: count for site, count in (("stc", stc), ("ttc", ttc)) if count}
    return dict(h2d), sites


@pytest.fixture(scope="module")
def one_gpu(unbounded) -> Platform:
    """One V100 with unbounded GPU and host memories."""
    return unbounded(Platform.of_gpus(V100, 1, 1))


def assert_identity(
    platform: Platform, n: int, nb: int, kmap: KernelPrecisionMap, strategy: ConversionStrategy
) -> None:
    h2d, sites = exact_motion(n, nb, kmap, strategy)
    stats = simulate_cholesky(
        n, nb, kmap, platform, strategy=strategy, record_events=False,
    ).stats
    moved = {p: v for (link, p), v in stats.bytes_moved.items() if link == "h2d"}
    assert moved == h2d
    assert {link: stats.link_bytes(link) for link in LINKS if link != "h2d"} == dict.fromkeys(
        (link for link in LINKS if link != "h2d"), 0
    )
    assert stats.conversions_by_site == sites
    assert stats.n_conversions == sum(sites.values())
    assert stats.n_evictions == 0


@st.composite
def _cases(draw):
    nt = draw(st.integers(1, 9))
    nb = draw(st.integers(4, 48))
    n = nt * nb - draw(st.integers(0, nb - 1))  # ragged last tile, same NT
    seed = draw(st.integers(0, 2**31 - 1))
    codes = np.random.default_rng(seed).choice([int(p) for p in ADAPTIVE_FORMATS], (nt, nt))
    codes = np.tril(codes, -1)
    codes = codes + codes.T
    np.fill_diagonal(codes, int(FP64))
    strategy = draw(st.sampled_from(list(ConversionStrategy)))
    return n, nb, KernelPrecisionMap(nt, codes), strategy


@given(_cases())
@settings(max_examples=60, deadline=None)
def test_random_maps(one_gpu, case):
    assert_identity(one_gpu, *case)


@pytest.mark.parametrize("strategy", list(ConversionStrategy), ids=lambda s: s.value)
def test_band_precision_map(one_gpu, strategy):
    nt, nb = 11, 32
    kmap = band_precision_map(
        nt, [(1, FP64), (3, Precision.FP32), (6, Precision.FP16_32), (nt, FP16)]
    )
    assert_identity(one_gpu, nt * nb - 5, nb, kmap, strategy)


@pytest.fixture(scope="module")
def hilbert_reference_map() -> KernelPrecisionMap:
    """The 16×16 reference: n = 1024, nb = 64, 2D Matérn adaptive,
    Hilbert-ordered points — 39 tiles below FP32."""
    from repro.bench.apps import app_kernel_map
    from repro.geostats import dataplane as dp
    from repro.geostats.locations import generate_locations

    locs = dp.order_locations(generate_locations(1024, 2, seed=0, sort=False), "hilbert", seed=0)
    kmap = app_kernel_map("2d-matern", 1024, 64, samples_per_tile=32, seed=0,
                          locations=locs, ordering=None)
    assert kmap.nt == 16 and kmap.count_below(Precision.FP32) == 39
    return kmap


@pytest.mark.parametrize("strategy", list(ConversionStrategy), ids=lambda s: s.value)
def test_hilbert_reference(one_gpu, hilbert_reference_map, strategy):
    assert_identity(one_gpu, 1024, 64, hilbert_reference_map, strategy)
