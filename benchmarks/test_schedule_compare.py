"""Schedule-compare smoke: policy ordering on the 16×16-tile Cholesky.

Two guarantees the scheduling subsystem ships with (see
``docs/SCHEDULING.md``):

* ``critical-path`` lookahead strictly beats the ``fifo`` baseline on
  the 16×16-tile reference factorization — the lookahead must buy real
  makespan, not just reorder equal schedules;
* ``panel-first`` reproduces its pinned pre-refactor makespan *exactly*
  (same constant as ``tests/test_runtime_policies.py``), so the default
  schedule never drifts under refactoring.
"""

from __future__ import annotations

from repro.runtime import POLICY_NAMES
from repro.sweep import RunSpec, price_run

N, NB = 2048, 128  # 16×16 tiles
PINNED_PANEL_FIRST_MAKESPAN = 0.0034016082320134913


def _simulate(policy: str, gpus_per_node: int = 1):
    spec = RunSpec(n=N, nb=NB, config="FP64/FP16_32", policy=policy, gpus_per_node=gpus_per_node)
    return price_run(spec)[0]


def test_critical_path_beats_fifo_single_gpu():
    cp = _simulate("critical-path")
    fifo = _simulate("fifo")
    assert cp.makespan < fifo.makespan, (
        f"critical-path {cp.makespan} must beat fifo {fifo.makespan}"
    )


def test_critical_path_beats_fifo_multi_gpu():
    cp = _simulate("critical-path", gpus_per_node=4)
    fifo = _simulate("fifo", gpus_per_node=4)
    assert cp.makespan <= fifo.makespan


def test_panel_first_matches_pinned_makespan():
    assert _simulate("panel-first").makespan == PINNED_PANEL_FIRST_MAKESPAN


def test_every_policy_prices_the_reference(once=None):
    makespans = {pol: _simulate(pol).makespan for pol in POLICY_NAMES}
    assert all(m > 0 for m in makespans.values())
    # fifo is the degenerate baseline: nothing should be slower by >2×
    worst = max(makespans.values())
    assert worst <= 2.0 * makespans["fifo"]
