"""Ablation benches for the design choices DESIGN.md calls out.

* tile size — the paper fixes nb = 2048 empirically; the sweep shows the
  throughput plateau around that value (small tiles are launch/panel
  bound, huge tiles lose parallelism);
* norm-rule vs band-based precision assignment (related work [12], [13])
  at an equal low-precision budget;
* panel-priority scheduling vs FIFO dispatch, which commit the same
  order on a k-major Cholesky DAG (see ``SCHEDULER_SPECS``).
"""

from repro.bench import (
    SCHEDULER_SPECS,
    TILE_SIZE_SPECS,
    ablation_band_vs_norm_rows,
    format_table,
    scheduler_rows,
    tile_size_rows,
    write_csv,
)


def test_ablation_tile_size(once, sweep):
    rows = tile_size_rows(once(sweep, TILE_SIZE_SPECS, "ablation-tile-size"))
    print()
    print(format_table(["nb", "NT", "Tflop/s", "seconds"], rows, title="Ablation: tile size"))
    write_csv("ablation_tile_size", ["nb", "nt", "tflops", "seconds"], rows)
    by_nb = {r[0]: r[2] for r in rows}
    # 2048 clearly beats the smallest tile and is within 25 % of the best
    assert by_nb[2048] > by_nb[512]
    assert by_nb[2048] >= max(by_nb.values()) * 0.75


def test_ablation_band_vs_norm(once):
    rows = once(ablation_band_vs_norm_rows)
    print()
    print(format_table(["scheme", "FP64 %", "FP16-class %", "Tflop/s"], rows,
                       title="Ablation: norm rule vs band assignment"))
    write_csv("ablation_band_vs_norm", ["scheme", "fp64_pct", "low_pct", "tflops"], rows)
    norm = next(r for r in rows if r[0] == "norm-rule")
    band = next(r for r in rows if r[0] == "band")
    # comparable budgets by construction
    assert abs(norm[2] - band[2]) < 35.0
    # both run; the norm rule should not be slower given the same budget
    assert norm[3] >= band[3] * 0.8


def test_ablation_scheduler(once, sweep):
    rows = scheduler_rows(once(sweep, SCHEDULER_SPECS, "ablation-scheduler"))
    print()
    print(format_table(["scheme", "Tflop/s", "seconds"], rows, title="Ablation: scheduler priority"))
    write_csv("ablation_scheduler", ["scheme", "tflops", "seconds"], rows)
    panel = next(r for r in rows if r[0] == "panel-priority")
    fifo = next(r for r in rows if r[0] == "fifo")
    # equal by construction: among equal-ready tasks panel-first orders by
    # (priority, tid) and FIFO by tid, and a k-major task's priority
    # 4k + kind never decreases with its id
    assert panel[1:] == fifo[1:]
