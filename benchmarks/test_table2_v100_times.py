"""Table II: time to move a tile to one Summit V100 and run a GEMM on it.

The transfer/kernel time model regenerates the paper's measurements; the
assertions pin each cell to within 15 % of the published value, which
``bench.figures_micro`` keeps beside ``table2_rows`` as ``TABLE2_MS`` —
these numbers are the primary calibration anchors of the simulator.
"""

import pytest

from repro.bench import format_table, table2_rows, write_csv
from repro.bench.figures_micro import TABLE2_MS, TABLE2_SIZES


def test_table2_v100_times(benchmark):
    rows = benchmark(table2_rows, TABLE2_SIZES)
    print()
    print(format_table(["operation", *map(str, TABLE2_SIZES)], rows, title="Table II (ms, V100)"))
    write_csv("table2_v100_times", ["operation", *map(str, TABLE2_SIZES)], rows)
    # one row per (kind, precision) cell of the paper's table, in its order
    for row, ((kind, prec), paper) in zip(rows, TABLE2_MS.items(), strict=True):
        label, *values = row
        assert label.startswith("Move" if kind == "move" else "Execute GEMM")
        assert label.endswith(f" in {prec.name}")
        for got, want, n in zip(values, paper, TABLE2_SIZES):
            assert got == pytest.approx(want, rel=0.15), (
                f"{label} @ {n}: modeled {got:.3f} ms vs paper {want} ms"
            )
