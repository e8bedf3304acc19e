"""DAG-build benchmark: the table-driven emitter against the closure PTG.

A ratio on one host, so it holds anywhere: at the ``sim_*`` perfbench
shape (NT = 40, nb = 512, the 2D-sqexp kernel map, a 2×2 grid) the
k-major emitter of :mod:`repro.core.dag_cholesky` must build the graph
at least 3× faster than the closure-per-class PTG it replaced
(``tests/cholesky_ptg_oracle.py``) — and build the same graph.
"""

from __future__ import annotations

import time

from repro.bench.apps import app_kernel_map
from repro.core import build_cholesky_dag, cholesky_task_count
from repro.tiles.distribution import ProcessGrid

from tests.cholesky_ptg_oracle import build_cholesky_graph_oracle, edge_lists

NT, NB = 40, 512
SPEEDUP_FLOOR = 3.0


def _best_of(fn, repeats: int = 3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_emitter_beats_the_closure_ptg(benchmark):
    """Acceptance: emitter ≥ 3× the oracle at NT=40, equal graph."""
    n = NT * NB
    kmap = app_kernel_map("2d-sqexp", n, NB, samples_per_tile=16, seed=0)
    grid = ProcessGrid(2, 2)

    t_oracle, oracle = _best_of(lambda: build_cholesky_graph_oracle(n, NB, kmap, grid=grid))
    t_new, dag = _best_of(lambda: build_cholesky_dag(n, NB, kmap, grid=grid))
    benchmark(build_cholesky_dag, n, NB, kmap, grid=grid)

    n_tasks = cholesky_task_count(NT)
    assert len(dag.graph) == n_tasks
    graph = dag.graph
    assert graph.tasks == oracle.tasks
    preds, succs = edge_lists(oracle.tasks)
    assert [graph.predecessors(t) for t in range(n_tasks)] == preds
    assert [graph.successors(t) for t in range(n_tasks)] == succs
    speedup = t_oracle / t_new
    print(f"\nNT={NT} ({n_tasks} tasks): closure PTG {t_oracle:.3f}s ({n_tasks / t_oracle:,.0f} tasks/s)"
          f"  emitter {t_new:.3f}s ({n_tasks / t_new:,.0f} tasks/s)  speedup {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"emitter only {speedup:.1f}x faster than the closure PTG (need ≥ {SPEEDUP_FLOOR}x)"
    )
