"""Experiment drivers for the microbenchmark tables/figures.

Covers Table I (GPU peaks), Table II (V100 move/GEMM times), Fig. 1
(GEMM accuracy & performance per precision), Fig. 2 (precision maps),
Fig. 3 (DAG pattern of the first iterations), and Fig. 4 (automated
conversion maps).  Each driver returns plain rows so the pytest-benchmark
wrappers and the examples can share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import ConversionStrategy
from ..core.conversion import CommPrecisionMap, build_comm_precision_map
from ..core.dag_cholesky import build_cholesky_dag
from ..core.precision_map import KernelPrecisionMap, build_precision_map
from ..geostats.covariance import Matern
from ..geostats.generator import build_tiled_covariance
from ..geostats.locations import generate_locations
from ..perfmodel.gpus import GPU_BY_NAME, V100
from ..perfmodel.kernels import gemm_time
from ..perfmodel.transfers import h2d_time
from ..precision.formats import Precision
from ..precision.gemm import gemm_relative_error
from ..tiles.norms import tile_norms

__all__ = [
    "TABLE2_MS",
    "TABLE2_SIZES",
    "table1_rows",
    "table2_rows",
    "fig1_accuracy_rows",
    "fig1_performance_rows",
    "example_precision_maps",
    "fig3_dag_summary",
]

#: the six formats of the Section IV GEMM study, presentation order
_FIG1_FORMATS = (
    Precision.FP64,
    Precision.FP32,
    Precision.TF32,
    Precision.FP16_32,
    Precision.BF16_32,
    Precision.FP16,
)


def table1_rows() -> list[list]:
    """Table I: theoretical peaks (Tflop/s) per GPU and precision."""
    rows = []
    display = [
        ("FP64", Precision.FP64),
        ("FP32", Precision.FP32),
        ("TF32 Tensor", Precision.TF32),
        ("FP16 Tensor", Precision.FP16),
        ("BF16 Tensor", Precision.BF16_32),
    ]
    for label, prec in display:
        row = [label]
        for name in ("V100", "A100", "H100"):
            row.append(GPU_BY_NAME[name].peak(prec) / 1e12)
        rows.append(row)
    return rows


#: the paper's Table II (ms) per (kind, precision), one value per size of
#: ``TABLE2_SIZES`` — the calibration anchors of the V100 model; its rows
#: are :func:`table2_rows`' rows, in order
TABLE2_MS = {
    ("move", Precision.FP64): (0.67, 2.68, 6.04, 10.74, 16.78),
    ("move", Precision.FP32): (0.34, 1.34, 3.02, 5.37, 8.39),
    ("move", Precision.FP16): (0.17, 0.67, 1.51, 2.68, 4.19),
    ("gemm", Precision.FP64): (2.2, 17.62, 59.47, 140.96, 275.32),
    ("gemm", Precision.FP32): (1.09, 8.75, 29.54, 70.03, 136.78),
    ("gemm", Precision.FP16): (0.14, 1.1, 3.71, 8.8, 17.18),
}
TABLE2_SIZES = (2048, 4096, 6144, 8192, 10240)


def table2_rows(sizes: tuple[int, ...] = TABLE2_SIZES) -> list[list]:
    """Table II: V100 tile-move and GEMM times (ms) per precision."""
    rows = []
    for prec in (Precision.FP64, Precision.FP32, Precision.FP16):
        rows.append(
            [f"Move one tile/matrix in {prec.name}"]
            + [h2d_time(V100, n, prec) * 1e3 for n in sizes]
        )
    for prec in (Precision.FP64, Precision.FP32, Precision.FP16):
        rows.append(
            [f"Execute GEMM in {prec.name}"] + [gemm_time(V100, n, prec) * 1e3 for n in sizes]
        )
    return rows


def fig1_accuracy_rows(
    sizes: tuple[int, ...] = (256, 512, 1024, 2048),
    *,
    seed: int = 0,
) -> list[list]:
    """Fig. 1 (top): emulated GEMM accuracy vs FP64 per format and size."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        row = [n]
        for prec in _FIG1_FORMATS:
            row.append(gemm_relative_error(n, prec, rng=rng))
        rows.append(row)
    return rows


def fig1_performance_rows(
    gpus: tuple[str, ...] = ("V100", "A100", "H100"),
    sizes: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384),
) -> list[list]:
    """Fig. 1 (bottom): modeled GEMM Tflop/s per GPU, format, size."""
    rows = []
    for name in gpus:
        gpu = GPU_BY_NAME[name]
        for n in sizes:
            row = [name, n]
            for prec in _FIG1_FORMATS:
                flops = 2.0 * float(n) ** 3
                row.append(flops / gemm_time(gpu, n, prec) / 1e12)
            rows.append(row)
    return rows


@dataclass
class ExampleMaps:
    """The Fig. 2/Fig. 4 running example: an NT×NT Matérn covariance."""

    kernel_map: KernelPrecisionMap
    comm_map: CommPrecisionMap
    nt: int


def example_precision_maps(
    nt: int = 8,
    nb: int = 32,
    *,
    accuracy: float = 1e-4,
    seed: int = 0,
) -> ExampleMaps:
    """Build the small demonstration maps of Figs. 2 and 4.

    A Matérn covariance over Morton-ordered locations gives the
    diagonal-heavy decay pattern the figures illustrate; range 0.1 at
    u_req = 1e-4 produces all four adaptive formats at NT = 8 like the
    paper's example.
    """
    n = nt * nb
    locs = generate_locations(n, 2, seed=seed)
    model = Matern(dim=2)
    cov = build_tiled_covariance(locs, model, (1.0, 0.1, 0.5), nb)
    kmap = build_precision_map(tile_norms(cov), accuracy)
    cmap = build_comm_precision_map(kmap)
    return ExampleMaps(kernel_map=kmap, comm_map=cmap, nt=nt)


def fig3_dag_summary(nt: int = 4, nb: int = 32) -> dict:
    """Fig. 3: task counts and dependency pattern of the first iterations."""
    kmap = build_precision_map(np.ones((nt, nt)), 1e-9)
    dag = build_cholesky_dag(nt * nb, nb, kmap, strategy=ConversionStrategy.AUTO)
    graph = dag.graph
    per_iteration: dict[int, dict[str, int]] = {}
    for task in graph:
        k = task.params[-1] if task.kind != "POTRF" else task.params[0]
        per_iteration.setdefault(k, {})
        per_iteration[k][task.kind] = per_iteration[k].get(task.kind, 0) + 1
    edges = sum(len(graph.predecessors(t)) for t in range(len(graph)))
    return {
        "n_tasks": len(graph),
        "n_edges": edges,
        "per_iteration": per_iteration,
        "counts": graph.counts_by_kind(),
        "critical_path_tasks": graph.critical_path_length(lambda t: 1.0),
    }
