"""The engine's energy counters against the trace-walking integrator.

:attr:`SimReport.joules` is the closed-form law of
:func:`repro.perfmodel.energy.joules` over the busy seconds the engine
counts as it prices each task and copy.  It must equal
``tests/energy_oracle.py`` — the integral over every rank's trace events
— within 1e-12 relative, under every policy, out of core (disk and NIC
traffic draw nothing) and across nodes, and must not depend on whether
the trace is recorded.
"""

import pytest

from repro.bench import APPLICATIONS, app_kernel_map
from repro.core import build_cholesky_dag, simulate_cholesky, uniform_map
from repro.perfmodel import SUMMIT_NODE
from repro.precision import Precision
from repro.runtime import POLICY_NAMES, Platform, simulate
from tests.energy_oracle import run_joules
from tests.test_ooc_golden import CASES

REL = 1e-12


def _assert_identity(rep, platform):
    oracle = run_joules(rep, platform.gpu, platform.n_ranks)
    assert abs(rep.joules - oracle) <= REL * oracle, (rep.joules, oracle)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_equal_trace_integral_out_of_core(case, policy):
    n, nb, kmap, platform = CASES[case]
    graph = build_cholesky_dag(n, nb, kmap, grid=platform.process_grid()).graph
    rep = simulate(graph, platform, nb, policy=policy)
    assert rep.stats.link_bytes("disk_write") > 0 and rep.copy_seconds > 0.0
    _assert_identity(rep, platform)
    quiet = simulate(graph, platform, nb, policy=policy, record_events=False)
    assert (quiet.joules, quiet.compute_seconds, quiet.copy_seconds) == (
        rep.joules, rep.compute_seconds, rep.copy_seconds)


@pytest.mark.parametrize("config", ["FP64", "2D-sqexp"])
def test_counters_equal_trace_integral_on_two_summit_nodes(config):
    nt, nb = 12, 2048
    platform = Platform(node=SUMMIT_NODE, n_nodes=2)
    kmap = (uniform_map(nt, Precision.FP64) if config == "FP64"
            else app_kernel_map(APPLICATIONS["2d-sqexp"], nt * nb, nb, samples_per_tile=8))
    rep = simulate_cholesky(nt * nb, nb, kmap, platform)
    assert platform.n_ranks == 12 and rep.stats.link_bytes("nic") > 0
    _assert_identity(rep, platform)


def test_compute_seconds_are_task_intervals():
    """Per precision, the compute counter is Σ (end − start) of its tasks."""
    nt, nb = 8, 1024
    platform = Platform.single_gpu(SUMMIT_NODE.gpu)
    kmap = app_kernel_map(APPLICATIONS["2d-sqexp"], nt * nb, nb, samples_per_tile=8)
    dag = build_cholesky_dag(nt * nb, nb, kmap, grid=platform.process_grid())
    rep = simulate(dag.graph, platform, nb)
    expected: dict[Precision, float] = {}
    for task in dag.graph.tasks:
        expected[task.precision] = expected.get(task.precision, 0.0) + (
            rep.task_end[task.tid] - rep.task_start[task.tid])
    assert set(rep.compute_seconds) == set(expected) and len(expected) > 1
    for precision, seconds in expected.items():
        assert rep.compute_seconds[precision] == pytest.approx(seconds, rel=1e-12)
