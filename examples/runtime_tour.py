#!/usr/bin/env python3
"""A tour of the PaRSEC-like runtime substrate.

Builds one mixed-precision Cholesky DAG and shows the runtime tooling
around it:

1. the PTG (parameterized task graph) unrolls into the task DAG;
2. the DAG executes numerically — sequentially, on host threads, and
   across OS processes with wire-quantised payloads — all bit-identical;
3. the same DAG is priced on a simulated V100 and the trace rendered as
   an ASCII Gantt chart plus a Chrome/Perfetto JSON file.

Run:  python examples/runtime_tour.py
"""

import json

import numpy as np

from repro.core import build_cholesky_dag, build_precision_map
from repro.perfmodel import V100
from repro.runtime import (
    Platform,
    ascii_gantt,
    execute_numeric,
    execute_numeric_distributed,
    execute_numeric_parallel,
    simulate,
    to_chrome_trace,
)
from repro.tiles import ProcessGrid, TiledSymmetricMatrix, tile_norms


def main() -> None:
    rng = np.random.default_rng(0)
    n, nb = 96, 16
    a = rng.standard_normal((n, n))
    mat = TiledSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n), nb)
    kmap = build_precision_map(tile_norms(mat), 1e-6)

    # 1. the DAG
    grid = ProcessGrid(2, 2)
    ptg = build_cholesky_dag(n, nb, kmap, grid=grid)
    print(f"PTG: {len(ptg.graph)} tasks {ptg.graph.counts_by_kind()}")

    # 2. three executors, one answer
    seq = execute_numeric(ptg.graph, mat).lower_dense()
    par = execute_numeric_parallel(ptg.graph, mat, n_threads=4).lower_dense()
    dist = execute_numeric_distributed(ptg.graph, mat, grid.size).lower_dense()
    print(f"\nsequential == threaded: {np.array_equal(seq, par)}")
    print(f"sequential == distributed (4 processes): {np.array_equal(seq, dist)}")
    rel = np.linalg.norm(seq @ seq.T - mat.to_dense()) / np.linalg.norm(mat.to_dense())
    print(f"factorization residual: {rel:.2e}")

    # 3. price it on a simulated 4×V100 node and look at the timeline
    from repro.perfmodel import NodeSpec

    node = NodeSpec("tour", V100, grid.size, 256e9, 25e9, 1.5e-6)
    platform = Platform(node=node, n_nodes=1)
    report = simulate(ptg.graph, platform, nb)
    print(f"\nsimulated on {grid.size}xV100: {report.makespan * 1e3:.3f} ms, "
          f"{report.stats.link_bytes('h2d') / 1e3:.0f} kB host→device, "
          f"{report.stats.n_conversions} conversions")
    print()
    print(ascii_gantt(report.trace.events, report.makespan, width=80))

    path = "results/runtime_tour_trace.json"
    import os

    os.makedirs("results", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(to_chrome_trace(report.trace.events))
    n_events = len(json.load(open(path))["traceEvents"])
    print(f"\nChrome/Perfetto trace with {n_events} events written to {path}")


if __name__ == "__main__":
    main()
