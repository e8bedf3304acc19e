#!/usr/bin/env python3
"""Energy and data-motion report across GPU generations (Fig. 10 style).

Prices the three paper applications and the FP64 baseline on simulated
V100/A100/H100 GPUs as sweep points and reports runtime, energy,
Gflops/Watt, and the host→device traffic split by payload precision —
the quantities the automated conversion strategy is designed to shrink.

Run:  python examples/energy_report.py  [matrix_size]
"""

import sys
import tempfile

from repro.bench import fig10_rows, fig10_specs, format_table
from repro.sweep import run_sweep


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32768
    spec = fig10_specs("V100", n)[0]
    print(f"matrix {n} × {n}, tile {spec.nb} (NT={spec.nt})\n")

    with tempfile.TemporaryDirectory() as cache_dir:
        for gpu_name in ("V100", "A100", "H100"):
            result = run_sweep(fig10_specs(gpu_name, n), cache_dir=cache_dir,
                               progress_seconds=None)
            rows = []
            # fig10_rows: [config, seconds, kJ, Gflops/W, average W]
            for (label, seconds, kj, gpw, _), run in zip(fig10_rows(result), result.runs):
                h2d = ", ".join(f"{name}:{b / 1e9:.1f}GB"
                                for name, b in run.result["h2d_bytes_by_precision"].items())
                rows.append([label, seconds, run.result["tflops"], kj, gpw, h2d])
            print(format_table(
                ["config", "seconds", "Tflop/s", "kJ", "Gflops/W", "H2D by precision"],
                rows,
                title=f"== {gpu_name} ==",
            ))
            print()


if __name__ == "__main__":
    main()
