"""Experiment drivers for the performance/energy/scaling studies.

Covers Fig. 8 (STC vs TTC on one V100/A100/H100), Fig. 9 (H100
occupancy), Fig. 10 (power/energy, FP64 vs the mixed-precision
applications), Fig. 11 (single-node multi-GPU), Fig. 12 (Summit
weak/strong scaling and the mixed-precision effect on 384 GPUs), and the
design-choice ablations DESIGN.md lists (tile size, band-vs-norm
assignment, scheduler priority).

Every driver prices DAGs through the calibrated simulator (event-level
for single-node runs, the analytic panel model for cluster scale) and
returns plain rows for the pytest-benchmark wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.config import ConversionStrategy
from ..core.precision_map import (
    FIXED_CONFIGS,
    KernelPrecisionMap,
    band_precision_map,
    fixed_config_map,
    two_precision_map,
    uniform_map,
)
from ..core.solver import simulate_cholesky
from ..perfmodel.analytic import analytic_cholesky
from ..perfmodel.energy import EnergyReport, energy_report
from ..perfmodel.gpus import GPU_BY_NAME, GUYOT_NODE, SUMMIT_NODE
from ..perfmodel.occupancy import mean_occupancy, occupancy_trace
from ..precision.formats import Precision
from ..runtime.platform import Platform
from .apps import APPLICATIONS, app_kernel_map

__all__ = [
    "PerfPoint",
    "fig8_configs",
    "fig8_rows",
    "fig9_occupancy_rows",
    "fig10_energy_rows",
    "fig11_rows",
    "fig12_weak_rows",
    "fig12_strong_rows",
    "fig12_mp_rows",
    "ablation_tile_size_rows",
    "ablation_band_vs_norm_rows",
    "ablation_scheduler_rows",
]

NB = 2048


@dataclass(frozen=True)
class PerfPoint:
    """One simulated data point of a performance figure."""

    label: str
    gpu: str
    n: int
    strategy: str
    tflops: float
    seconds: float
    h2d_gb: float
    conversions: int

    def row(self) -> list:
        return [
            self.label,
            self.gpu,
            self.n,
            self.strategy,
            self.tflops,
            self.seconds,
            self.h2d_gb,
            self.conversions,
        ]


def fig8_configs() -> list[tuple[str, ConversionStrategy]]:
    """The Fig. 8 series: pure precisions plus STC/TTC extreme pairs."""
    return [
        ("FP64", ConversionStrategy.AUTO),
        ("FP32", ConversionStrategy.AUTO),
        ("FP64/FP16_32", ConversionStrategy.AUTO),  # all-STC in the extreme map
        ("FP64/FP16_32", ConversionStrategy.TTC),
        ("FP64/FP16", ConversionStrategy.AUTO),
        ("FP64/FP16", ConversionStrategy.TTC),
    ]


def default_sizes(gpu_name: str) -> tuple[int, ...]:
    """Matrix-size sweep per GPU (V100 capped by its 16 GB memory)."""
    if gpu_name == "V100":
        return (16384, 32768, 49152, 61440)
    return (16384, 32768, 61440, 73728)


def _strategy_rows(
    platform: Platform, gpu_label: str, sizes: tuple[int, ...], nb: int
) -> list[PerfPoint]:
    """The Fig. 8 / Fig. 11 loop: every :func:`fig8_configs` series at
    every size, priced on ``platform``."""
    out: list[PerfPoint] = []
    for n in sizes:
        nt = -(-n // nb)
        for label, strategy in fig8_configs():
            kmap = fixed_config_map(nt, label)
            rep = simulate_cholesky(
                n, nb, kmap, platform, strategy=strategy, record_events=False
            )
            out.append(
                PerfPoint(
                    label=label,
                    gpu=gpu_label,
                    n=n,
                    strategy="STC" if strategy == ConversionStrategy.AUTO else "TTC",
                    tflops=rep.stats.tflops,
                    seconds=rep.makespan,
                    h2d_gb=rep.stats.to_dict()["h2d_bytes"] / 1e9,
                    conversions=rep.stats.n_conversions,
                )
            )
    return out


def fig8_rows(
    gpu_name: str,
    sizes: tuple[int, ...] | None = None,
    *,
    nb: int = NB,
) -> list[PerfPoint]:
    """Fig. 8: STC vs TTC across precision configs on one GPU."""
    platform = Platform.single_gpu(GPU_BY_NAME[gpu_name])
    return _strategy_rows(platform, gpu_name, sizes or default_sizes(gpu_name), nb)


def fig9_occupancy_rows(
    *,
    gpu_name: str = "H100",
    n: int = 73728,
    nb: int = NB,
    n_windows: int = 60,
) -> dict[str, list[tuple[float, float]]]:
    """Fig. 9: windowed GPU occupancy per configuration on one H100."""
    gpu = GPU_BY_NAME[gpu_name]
    platform = Platform.single_gpu(gpu)
    nt = -(-n // nb)
    out: dict[str, list[tuple[float, float]]] = {}
    for label in FIXED_CONFIGS:
        kmap = fixed_config_map(nt, label)
        rep = simulate_cholesky(n, nb, kmap, platform, strategy=ConversionStrategy.AUTO)
        rank_events = rep.trace.events_of_rank(0)
        samples = occupancy_trace(rank_events, rep.makespan, n_windows=n_windows)
        out[label] = [(s.time, s.occupancy) for s in samples]
    return out


def fig10_energy_rows(
    gpu_name: str,
    *,
    n: int | None = None,
    nb: int = NB,
    samples_per_tile: int = 32,
) -> list[tuple[str, EnergyReport]]:
    """Fig. 10: energy of FP64 vs the MP approach for the three apps.

    Matrix sizes follow the paper: 61,440 on V100 (largest FP64 fit),
    122,880 on A100/H100 (Haxane host-memory limit).
    """
    gpu = GPU_BY_NAME[gpu_name]
    platform = Platform.single_gpu(gpu)
    if n is None:
        n = 61440 if gpu_name == "V100" else 122880
    nt = -(-n // nb)
    runs: list[tuple[str, KernelPrecisionMap]] = [("FP64", uniform_map(nt, Precision.FP64))]
    for key in ("2d-sqexp", "2d-matern", "3d-sqexp"):
        runs.append(
            (
                APPLICATIONS[key].label,
                app_kernel_map(APPLICATIONS[key], n, nb, samples_per_tile=samples_per_tile),
            )
        )
    out = []
    for label, kmap in runs:
        rep = simulate_cholesky(n, nb, kmap, platform, strategy=ConversionStrategy.AUTO)
        report = energy_report(
            gpu,
            rep.trace.events_of_rank(0),
            rep.makespan,
            total_flops=rep.stats.total_flops,
        )
        out.append((label, report))
    return out


def fig11_rows(
    node_name: str,
    sizes: tuple[int, ...] = (32768, 61440, 90112),
    *,
    nb: int = NB,
) -> list[PerfPoint]:
    """Fig. 11: single-node multi-GPU STC vs TTC (Summit 6×V100, Guyot 8×A100)."""
    node = {"summit": SUMMIT_NODE, "guyot": GUYOT_NODE}[node_name]
    return _strategy_rows(Platform(node=node, n_nodes=1),
                          f"{node.gpu.name}x{node.gpus_per_node}", sizes, nb)


def fig12_weak_rows(
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    *,
    nb: int = NB,
    base_nt_per_gpu: float = 14.0,
) -> list[list]:
    """Fig. 12a: weak scaling on Summit (memory per GPU held constant).

    The tile count grows as sqrt(GPUs), keeping n²/GPU fixed.  Rows:
    ``[nodes, gpus, n, config, Tflop/s, Tflop/s per GPU]``.
    """
    rows = []
    for nodes in node_counts:
        gpus = nodes * SUMMIT_NODE.gpus_per_node
        nt = max(4, int(base_nt_per_gpu * math.sqrt(gpus)))
        n = nt * nb
        platform = Platform(node=SUMMIT_NODE, n_nodes=nodes)
        for label in ("FP64", "FP64/FP16"):
            kmap = fixed_config_map(nt, label)
            rep = analytic_cholesky(n, nb, kmap, platform)
            rows.append([nodes, gpus, n, label, rep.tflops, rep.tflops / gpus])
    return rows


def fig12_strong_rows(
    node_counts: tuple[int, ...] = (4, 8, 16, 32, 64),
    *,
    n: int = 798720,
    nb: int = NB,
) -> list[list]:
    """Fig. 12b: strong scaling at the paper's fixed matrix size 798,720."""
    nt = -(-n // nb)
    rows = []
    for nodes in node_counts:
        platform = Platform(node=SUMMIT_NODE, n_nodes=nodes)
        for label in ("FP64", "FP64/FP16"):
            kmap = fixed_config_map(nt, label)
            rep = analytic_cholesky(n, nb, kmap, platform)
            rows.append([nodes, nodes * 6, label, rep.seconds, rep.tflops])
    return rows


def fig12_mp_rows(
    sizes: tuple[int, ...] = (262144, 524288, 798720),
    *,
    nodes: int = 64,
    nb: int = NB,
    samples_per_tile: int = 24,
) -> list[list]:
    """Fig. 12c: MP effect on 64 Summit nodes (384 GPUs) vs FP64/FP32.

    Rows: ``[n, config, Tflop/s, speedup over FP64]``.
    """
    platform = Platform(node=SUMMIT_NODE, n_nodes=nodes)
    rows = []
    for n in sizes:
        nt = -(-n // nb)
        base = analytic_cholesky(n, nb, uniform_map(nt, Precision.FP64), platform)
        rows.append([n, "FP64", base.tflops, 1.0])
        fp32 = analytic_cholesky(n, nb, uniform_map(nt, Precision.FP32), platform)
        rows.append([n, "FP32", fp32.tflops, base.seconds / fp32.seconds])
        for key in ("2d-sqexp", "2d-matern", "3d-sqexp"):
            kmap = app_kernel_map(
                APPLICATIONS[key], n, nb, samples_per_tile=samples_per_tile
            )
            rep = analytic_cholesky(n, nb, kmap, platform)
            rows.append([n, APPLICATIONS[key].label, rep.tflops, base.seconds / rep.seconds])
    return rows


# -- ablations ---------------------------------------------------------------


def ablation_tile_size_rows(
    tile_sizes: tuple[int, ...] = (512, 1024, 2048, 4096),
    *,
    n: int = 49152,
    gpu_name: str = "V100",
) -> list[list]:
    """Tile-size sensitivity (the paper fixes nb = 2048 empirically)."""
    gpu = GPU_BY_NAME[gpu_name]
    platform = Platform.single_gpu(gpu)
    rows = []
    for nb in tile_sizes:
        nt = -(-n // nb)
        kmap = two_precision_map(nt, Precision.FP16)
        rep = simulate_cholesky(n, nb, kmap, platform, record_events=False)
        rows.append([nb, nt, rep.stats.tflops, rep.makespan])
    return rows


def ablation_band_vs_norm_rows(
    *,
    n: int = 409600,
    nb: int = NB,
    app_key: str = "2d-sqexp",
    samples_per_tile: int = 32,
) -> list[list]:
    """Norm-rule assignment vs the band-based related work ([12], [13]).

    The band map is matched to use the *same overall tile fractions* as
    the norm map, so the comparison isolates placement, not budget.
    Rows: ``[scheme, FP64 %, FP16-class %, Tflop/s]``.
    """
    app = APPLICATIONS[app_key]
    nt = -(-n // nb)
    kmap = app_kernel_map(app, n, nb, samples_per_tile=samples_per_tile)
    fr = kmap.tile_fractions()
    # translate fractions into band widths with the same budget
    n_low = fr.get(Precision.FP16, 0.0) + fr.get(Precision.FP16_32, 0.0)
    band_fp64 = 0
    band_fp32 = max(1, int(round((1.0 - n_low) * nt / 2)))
    bmap = band_precision_map(
        nt,
        [(band_fp64, Precision.FP64), (band_fp32, Precision.FP32), (nt, Precision.FP16)],
    )
    platform = Platform(node=SUMMIT_NODE, n_nodes=4)
    rows = []
    for scheme, m in (("norm-rule", kmap), ("band", bmap)):
        rep = analytic_cholesky(n, nb, m, platform)
        f = m.tile_fractions()
        rows.append(
            [
                scheme,
                100.0 * f.get(Precision.FP64, 0.0),
                100.0 * (f.get(Precision.FP16, 0.0) + f.get(Precision.FP16_32, 0.0)),
                rep.tflops,
            ]
        )
    return rows


def ablation_scheduler_rows(
    *,
    n: int = 32768,
    nb: int = NB,
) -> list[list]:
    """Cholesky panel priority vs FIFO dispatch in the simulator."""
    platform = Platform(node=SUMMIT_NODE, n_nodes=1)
    kmap = two_precision_map(-(-n // nb), Precision.FP16)
    rows = []
    for scheme, policy in (("panel-priority", "panel-first"), ("fifo", "fifo")):
        rep = simulate_cholesky(n, nb, kmap, platform, record_events=False, policy=policy)
        rows.append([scheme, rep.stats.tflops, rep.makespan])
    return rows
