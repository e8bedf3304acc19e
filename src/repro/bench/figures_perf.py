"""Experiment drivers for the performance/energy/scaling studies.

Covers Fig. 8 (STC vs TTC on one V100/A100/H100), Fig. 9 (H100
occupancy), Fig. 10 (energy and Gflops/W, FP64 vs the mixed-precision
applications), Fig. 11 (single-node multi-GPU), Fig. 12 (Summit
weak/strong scaling and the mixed-precision effect on 384 GPUs), and the
design-choice ablations DESIGN.md lists (tile size, band-vs-norm
assignment, scheduler priority).

Figs. 8, 10 and 11 and the tile-size and scheduler ablations are sweep
points: ``*_SPECS`` / :func:`strategy_specs` / :func:`fig10_specs` name
their :class:`~repro.sweep.RunSpec` lists and ``*_rows`` format the
:class:`~repro.sweep.SweepResult` of :func:`repro.sweep.run_sweep`.
Fig. 9 reads the event trace a sweep point does not keep: it prices its
points through :func:`repro.sweep.price_run` with ``record_events=True``.
Fig. 12 and the band-vs-norm ablation still call the analytic panel model
(:func:`~repro.perfmodel.analytic.analytic_cholesky`): neither Fig. 12c's
``samples_per_tile=24`` maps nor the fraction-matched band map is a ``RunSpec``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.precision_map import (
    FIXED_CONFIGS,
    band_precision_map,
    two_precision_map,
    uniform_map,
)
from ..obs.analysis import utilization_timeline
from ..perfmodel.analytic import analytic_cholesky
from ..perfmodel.gpus import GPU_BY_NAME, GUYOT_NODE, SUMMIT_NODE
from ..precision.formats import Precision
from ..runtime.platform import Platform
from ..sweep import RunSpec, SweepResult, price_run
from .apps import APPLICATIONS, app_kernel_map

__all__ = [
    "FIG8_SERIES",
    "MACHINES",
    "default_sizes",
    "strategy_specs",
    "strategy_rows",
    "fig9_occupancy_rows",
    "fig10_specs",
    "fig10_rows",
    "fig12_weak_rows",
    "fig12_strong_rows",
    "fig12_mp_rows",
    "TILE_SIZE_SPECS",
    "tile_size_rows",
    "ablation_band_vs_norm_rows",
    "SCHEDULER_SCHEMES",
    "SCHEDULER_SPECS",
    "scheduler_rows",
]

NB = 2048

#: the six series of Figs. 8 and 11, in row order: (config, strategy);
#: ``auto`` is all-STC on these extreme two-precision maps
FIG8_SERIES = (
    ("FP64", "auto"),
    ("FP32", "auto"),
    ("FP64/FP16_32", "auto"),
    ("FP64/FP16_32", "ttc"),
    ("FP64/FP16", "auto"),
    ("FP64/FP16", "ttc"),
)

#: the machines of Figs. 8 and 11 as RunSpec platform fields: one GPU of
#: each model, and the Summit (6 × V100) and Guyot (8 × A100, 2,063 GB
#: host) nodes
MACHINES = {
    **{name: {"gpu": name} for name in GPU_BY_NAME},
    **{name: {"gpu": node.gpu.name, "gpus_per_node": node.gpus_per_node,
              "host_memory_gb": node.host_memory_bytes / 1e9}
       for name, node in (("summit", SUMMIT_NODE), ("guyot", GUYOT_NODE))},
}


def default_sizes(gpu_name: str) -> tuple[int, ...]:
    """Matrix-size sweep per GPU (V100 capped by its 16 GB memory)."""
    if gpu_name == "V100":
        return (16384, 32768, 49152, 61440)
    return (16384, 32768, 61440, 73728)


def strategy_specs(machine: str, sizes: Sequence[int]) -> list[RunSpec]:
    """Figs. 8 and 11: every :data:`FIG8_SERIES` point at every size on
    one :data:`MACHINES` entry."""
    return [RunSpec(n=n, nb=NB, config=config, strategy=strategy, **MACHINES[machine])
            for n in sizes for config, strategy in FIG8_SERIES]


def _points(result: SweepResult) -> list[tuple[RunSpec, dict]]:
    """``(spec, result)`` of every point in spec order; a failed point raises."""
    for run in result.runs:
        if run.failed:
            raise RuntimeError(f"sweep point {run.spec.label} failed: {run.result['error']}")
    return [(run.spec, run.result) for run in result.runs]


def strategy_rows(result: SweepResult) -> list[list]:
    """Fig. 8 / Fig. 11 rows: ``[config, GPU, n, STC|TTC, Tflop/s, seconds,
    H2D GB, conversions]``; the GPU is ``V100`` alone, ``A100x8`` on a node."""
    return [
        [s.config, s.gpu if s.gpus_per_node == 1 else f"{s.gpu}x{s.gpus_per_node}", s.n,
         "STC" if s.strategy == "auto" else "TTC", r["tflops"], r["makespan_seconds"],
         r["h2d_bytes"] / 1e9, r["n_conversions"]]
        for s, r in _points(result)
    ]


def fig9_occupancy_rows() -> dict[str, list[tuple[float, float]]]:
    """Fig. 9: GPU occupancy in 60 windows per configuration on one H100 at n = 73,728."""
    n_windows = 60
    out: dict[str, list[tuple[float, float]]] = {}
    for label in FIXED_CONFIGS:
        rep, _ = price_run(RunSpec(n=73728, nb=NB, config=label, gpu="H100"), record_events=True)
        occupancy = utilization_timeline(rep.trace.events_of_rank(0),
                                         makespan=rep.makespan, n_buckets=n_windows)
        starts = np.linspace(0.0, rep.makespan, n_windows + 1)[:-1].tolist()
        out[label] = list(zip(starts, occupancy["compute"]))
    return out


def fig10_specs(gpu_name: str, n: int) -> list[RunSpec]:
    """Fig. 10: FP64 and the adaptive map of the three applications on one GPU.

    The paper's sizes are 61,440 on V100 (its largest FP64 fit) and
    122,880 on A100/H100.  Every point runs on the default 256 GB host,
    not Haxane's 63 GB host, on which the runs at 122,880 would spill
    more to disk.  The FP64 point is Fig. 8's FP64 point at the same size.
    """
    return [RunSpec(n=n, nb=NB, config="FP64", gpu=gpu_name),
            *(RunSpec(n=n, nb=NB, config="adaptive", app=app, gpu=gpu_name)
              for app in ("2d-sqexp", "2d-matern", "3d-sqexp"))]


def fig10_rows(result: SweepResult) -> list[list]:
    """Rows: ``[config, seconds, kJ, Gflops/W, average W]``."""
    return [
        ["FP64" if s.config == "FP64" else APPLICATIONS[s.app].label, r["makespan_seconds"],
         r["joules"] / 1e3, r["gflops_per_watt"], r["joules"] / r["makespan_seconds"]]
        for s, r in _points(result)
    ]


def fig12_weak_rows(
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    *,
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
        n = nt * NB
        platform = Platform(node=SUMMIT_NODE, n_nodes=nodes)
        for label in ("FP64", "FP64/FP16"):
            kmap = two_precision_map(nt, FIXED_CONFIGS[label])
            rep = analytic_cholesky(n, NB, kmap, platform)
            rows.append([nodes, gpus, n, label, rep.tflops, rep.tflops / gpus])
    return rows


def fig12_strong_rows(
    node_counts: tuple[int, ...] = (4, 8, 16, 32, 64),
    *,
    n: int = 798720,
) -> list[list]:
    """Fig. 12b: strong scaling at the paper's fixed matrix size 798,720."""
    nt = -(-n // NB)
    rows = []
    for nodes in node_counts:
        platform = Platform(node=SUMMIT_NODE, n_nodes=nodes)
        for label in ("FP64", "FP64/FP16"):
            kmap = two_precision_map(nt, FIXED_CONFIGS[label])
            rep = analytic_cholesky(n, NB, kmap, platform)
            rows.append([nodes, nodes * 6, label, rep.seconds, rep.tflops])
    return rows


def fig12_mp_rows(sizes: tuple[int, ...]) -> list[list]:
    """Fig. 12c: MP effect on 64 Summit nodes (384 GPUs) vs FP64/FP32, the
    application maps from 24 sampled entries per tile.

    Rows: ``[n, config, Tflop/s, speedup over FP64]``.
    """
    platform = Platform(node=SUMMIT_NODE, n_nodes=64)
    rows = []
    for n in sizes:
        nt = -(-n // NB)
        base = analytic_cholesky(n, NB, uniform_map(nt, Precision.FP64), platform)
        rows.append([n, "FP64", base.tflops, 1.0])
        fp32 = analytic_cholesky(n, NB, uniform_map(nt, Precision.FP32), platform)
        rows.append([n, "FP32", fp32.tflops, base.seconds / fp32.seconds])
        for key in ("2d-sqexp", "2d-matern", "3d-sqexp"):
            kmap = app_kernel_map(APPLICATIONS[key], n, NB, samples_per_tile=24)
            rep = analytic_cholesky(n, NB, kmap, platform)
            rows.append([n, APPLICATIONS[key].label, rep.tflops, base.seconds / rep.seconds])
    return rows


# -- ablations ---------------------------------------------------------------


#: tile-size sensitivity on one V100 (the paper fixes nb = 2048 empirically)
TILE_SIZE_SPECS = tuple(RunSpec(n=49152, nb=nb, config="FP64/FP16", gpu="V100")
                        for nb in (512, 1024, 2048, 4096))


def tile_size_rows(result: SweepResult) -> list[list]:
    """Rows: ``[nb, NT, Tflop/s, seconds]``."""
    return [[s.nb, s.nt, r["tflops"], r["makespan_seconds"]] for s, r in _points(result)]


def ablation_band_vs_norm_rows() -> list[list]:
    """Norm-rule assignment vs the band-based related work ([12], [13]),
    for 2D-sqexp at n = 409,600 (32 sampled entries per tile) on 4 Summit nodes.

    The band map is matched to use the *same overall tile fractions* as
    the norm map, so the comparison isolates placement, not budget.
    Rows: ``[scheme, FP64 %, FP16-class %, Tflop/s]``.
    """
    n = 409600
    nt = -(-n // NB)
    kmap = app_kernel_map(APPLICATIONS["2d-sqexp"], n, NB, samples_per_tile=32)
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
        rep = analytic_cholesky(n, NB, m, platform)
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


#: the scheduler ablation's policies and their row labels
SCHEDULER_SCHEMES = {"panel-first": "panel-priority", "fifo": "fifo"}

#: Cholesky panel priority vs FIFO dispatch on one Summit node.  The two
#: commit the same order on a k-major Cholesky DAG: both take the
#: earliest-ready task first, among equal-ready ones panel-first orders
#: by ``(priority, tid)`` and FIFO by ``tid``, and the priority
#: ``4k + kind`` never decreases with the task id.
SCHEDULER_SPECS = tuple(RunSpec(n=32768, nb=NB, config="FP64/FP16", policy=policy,
                                **MACHINES["summit"]) for policy in SCHEDULER_SCHEMES)


def scheduler_rows(result: SweepResult) -> list[list]:
    """Rows: ``[scheme, Tflop/s, seconds]``."""
    return [[SCHEDULER_SCHEMES[s.policy], r["tflops"], r["makespan_seconds"]]
            for s, r in _points(result)]
