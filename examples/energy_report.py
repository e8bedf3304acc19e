#!/usr/bin/env python3
"""Energy and data-motion report across GPU generations (Fig. 10 style).

Prices the three paper applications and the FP64 baseline on simulated
V100/A100/H100 GPUs and reports runtime, energy, Gflops/Watt, and the
host→device traffic split by payload precision — the quantities the
automated conversion strategy is designed to shrink.

Run:  python examples/energy_report.py  [matrix_size]
"""

import sys

from repro.bench import APPLICATIONS, app_kernel_map, format_table
from repro.core import ConversionStrategy, simulate_cholesky, uniform_map
from repro.perfmodel import GPU_BY_NAME, energy_report
from repro.precision import Precision
from repro.runtime.platform import Platform


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32768
    nb = 2048
    nt = -(-n // nb)
    print(f"matrix {n} × {n}, tile {nb} (NT={nt})\n")

    for gpu_name in ("V100", "A100", "H100"):
        gpu = GPU_BY_NAME[gpu_name]
        platform = Platform.single_gpu(gpu)
        rows = []
        runs = [("FP64", uniform_map(nt, Precision.FP64))]
        for key, app in APPLICATIONS.items():
            runs.append((app.label, app_kernel_map(app, n, nb, samples_per_tile=24)))
        for label, kmap in runs:
            rep = simulate_cholesky(
                n, nb, kmap, platform, strategy=ConversionStrategy.AUTO
            )
            er = energy_report(
                gpu, rep.trace.events_of_rank(0), rep.makespan,
                total_flops=rep.stats.total_flops,
            )
            h2d = ", ".join(
                f"{name}:{b / 1e9:.1f}GB"
                for name, b in rep.stats.to_dict()["h2d_bytes_by_precision"].items()
            )
            rows.append([
                label,
                rep.makespan,
                rep.stats.tflops,
                er.total_joules / 1e3,
                er.gflops_per_watt,
                h2d,
            ])
        print(format_table(
            ["config", "seconds", "Tflop/s", "kJ", "Gflops/W", "H2D by precision"],
            rows,
            title=f"== {gpu_name} ==",
        ))
        print()


if __name__ == "__main__":
    main()
