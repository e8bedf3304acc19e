"""Analytic (panel-wise) performance model for cluster-scale Cholesky.

The discrete-event simulator walks every task, which is exact but
O(#tasks) — at the paper's Summit scale (matrix 798,720, NT = 390,
≈10M tasks, 384 GPUs) that is out of reach for a Python event loop.  The
weak/strong-scaling study (Fig. 12) therefore uses this closed-form
panel model, the standard first-order analysis of right-looking tile
Cholesky on a P×Q grid:

for each iteration k with trailing width w = NT−k−1:

* ``t_compute`` — the per-rank share of the iteration's TRSM/SYRK/GEMM
  flops, each priced at its precision's sustained rate, plus the
  receiver-side conversion passes the automated (``AUTO``) strategy
  implies;
* ``t_h2d``     — the per-rank host→device payload traffic (each panel
  tile lands on the P+Q−2 remote ranks that consume it, plus its own);
* ``t_net``     — the aggregate broadcast volume over the node NICs with
  a binomial-tree step factor;
* ``t_latency`` — the pipeline-fill critical path (POTRF + one TRSM).

Iteration time is ``max(t_compute, t_h2d, t_net) + t_latency`` — engines
overlap, the serial panel does not.  The same per-precision kernel rates
and byte counts as the event simulator are used, so small cases agree
with :func:`repro.runtime.simulator.simulate` to within the model's
~10–20 % coarseness (asserted in the integration tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.config import ConversionStrategy
from ..core.conversion import build_comm_precision_map, needs_conversion
from ..core.precision_map import KernelPrecisionMap
from ..precision.formats import Precision, bytes_per_element
from ..runtime.platform import Platform
from .kernels import KernelKind, conversion_time, kernel_time

__all__ = ["AnalyticReport", "analytic_cholesky"]


@dataclass
class AnalyticReport:
    """Closed-form estimate for one configuration."""

    seconds: float
    total_flops: float
    compute_seconds: float
    h2d_seconds: float
    network_seconds: float
    latency_seconds: float
    nic_bytes: float
    h2d_bytes: float

    @property
    def gflops(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.total_flops / self.seconds / 1e9

    @property
    def tflops(self) -> float:
        return self.gflops / 1e3


def analytic_cholesky(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    platform: Platform,
) -> AnalyticReport:
    """Estimate the mixed-precision Cholesky makespan on ``platform``."""
    nt = kernel_map.nt
    if nt != -(-n // nb):
        raise ValueError("kernel map NT inconsistent with n, nb")
    gpu = platform.gpu
    grid = platform.process_grid()
    p, q = grid.p, grid.q
    ranks = platform.n_ranks
    nodes = platform.n_nodes
    cmap = build_comm_precision_map(kernel_map)

    # per-precision kernel times at this tile size (cache)
    t_kernel: dict[tuple[str, Precision], float] = {}

    def tk(kind: str, prec: Precision) -> float:
        key = (kind, prec)
        if key not in t_kernel:
            t_kernel[key] = kernel_time(gpu, kind, nb, prec)
        return t_kernel[key]

    codes = kernel_map.codes
    elements = nb * nb
    remote_consumers = min(p + q - 2, ranks - 1)
    # Destination *nodes* of a panel broadcast: the Q row consumers are
    # rank-consecutive (share nodes); the P column consumers are strided
    # by Q (distinct nodes when Q ≥ gpus/node).
    gpn = platform.node.gpus_per_node
    if nodes > 1:
        row_nodes = math.ceil(q / gpn)
        col_nodes = min(p, nodes)
        dest_nodes = max(0, min(nodes - 1, row_nodes + col_nodes - 1))
    else:
        dest_nodes = 0
    bcast_steps = max(1, math.ceil(math.log2(dest_nodes + 1))) if dest_nodes else 0
    #: forwarding overhead of the binomial tree on aggregate NIC traffic
    tree_volume_factor = 1.5

    total = 0.0
    total_flops = 0.0
    acc_compute = acc_h2d = acc_net = acc_lat = 0.0
    nic_bytes_total = 0.0
    h2d_bytes_total = 0.0

    for k in range(nt):
        w = nt - k - 1
        # serial panel latency: POTRF plus the first TRSM of the column
        t_lat = tk(KernelKind.POTRF, Precision.FP64)
        if w > 0:
            first_prec = Precision(int(codes[k + 1, k]))
            t_lat += tk(
                KernelKind.TRSM,
                Precision.FP32 if first_prec < Precision.FP64 else Precision.FP64,
            )
        total_flops += (nb**3) / 3.0

        if w == 0:
            total += t_lat
            acc_lat += t_lat
            continue

        # panel column k travels at its median tile's payload precision
        pay = _column_payload(cmap, k, nt)
        # --- compute share of this iteration -----------------------------
        t_work = 0.0
        # TRSMs of column k (exec floor FP32)
        col = codes[k + 1 : nt, k]
        n_trsm64 = int(np.sum(col == int(Precision.FP64)))
        t_work += n_trsm64 * tk(KernelKind.TRSM, Precision.FP64)
        t_work += (w - n_trsm64) * tk(KernelKind.TRSM, Precision.FP32)
        total_flops += w * float(nb) ** 3
        # SYRKs (always FP64) + their payload up-cast conversions
        t_work += w * tk(KernelKind.SYRK, Precision.FP64)
        total_flops += w * (float(nb) ** 3)
        # GEMMs of the trailing submatrix, priced per precision
        sub = codes[k + 1 : nt, k + 1 : nt]
        tri = np.tril(np.ones_like(sub, dtype=bool), k=-1)
        gemm_codes = sub[tri]
        for code in np.unique(gemm_codes):
            prec = Precision(int(code))
            count = int(np.sum(gemm_codes == code))
            t_work += count * tk(KernelKind.GEMM, prec)
            # receiver conversions: two panel payloads + the C accumulator
            n_conv = 2 * int(needs_conversion(pay, prec, "in"))
            n_conv += int(needs_conversion(cmap.storage(k + 1, k + 1), prec, "inout"))
            t_work += count * n_conv * conversion_time(gpu, elements, pay, prec)
            total_flops += count * 2.0 * float(nb) ** 3
        t_compute = t_work / ranks

        # --- communication ------------------------------------------------
        pay_bytes = elements * bytes_per_element(pay)
        # every panel tile must reach its P+Q−2 remote consumer ranks
        h2d_bytes = w * (remote_consumers + 1) * pay_bytes
        t_h2d = h2d_bytes / ranks / gpu.host_link_bandwidth
        net_bytes = w * dest_nodes * pay_bytes * tree_volume_factor
        t_net = net_bytes / (nodes * platform.node.nic_bandwidth) if net_bytes else 0.0
        # tree-depth latency of one panel broadcast sits on the critical path
        if dest_nodes:
            t_lat += bcast_steps * (
                platform.node.nic_latency + pay_bytes / platform.node.nic_bandwidth
            )

        step = max(t_compute, t_h2d, t_net) + t_lat
        total += step
        acc_compute += t_compute
        acc_h2d += t_h2d
        acc_net += t_net
        acc_lat += t_lat
        nic_bytes_total += net_bytes
        h2d_bytes_total += h2d_bytes

    return AnalyticReport(
        seconds=total,
        total_flops=total_flops,
        compute_seconds=acc_compute,
        h2d_seconds=acc_h2d,
        network_seconds=acc_net,
        latency_seconds=acc_lat,
        nic_bytes=nic_bytes_total,
        h2d_bytes=h2d_bytes_total,
    )


def _column_payload(cmap, k: int, nt: int) -> Precision:
    """Representative payload precision of panel column k (its median tile)."""
    mid = min(nt - 1, k + 1 + (nt - k - 1) // 2)
    return cmap.payload(mid, k, ConversionStrategy.AUTO)
