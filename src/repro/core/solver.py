"""Symbolic (time-only) pricing of the mixed-precision Cholesky.

:func:`simulate_cholesky` builds (or streams) Algorithm 1's task graph
for a kernel-precision map and prices it on a simulated GPU platform —
how Figs. 8–12 reach matrix sizes no host could factor numerically.
"""

from __future__ import annotations

from ..runtime.platform import Platform
from ..runtime.simulator import SimReport, simulate, simulate_stream
from .config import ConversionStrategy
from .dag_cholesky import build_cholesky_dag, stream_cholesky_tasks
from .precision_map import KernelPrecisionMap

__all__ = [
    "default_stream_lookahead",
    "simulate_cholesky",
]


def default_stream_lookahead(nt: int) -> int:
    """Emission window for streamed Cholesky simulation.

    About two trailing-update sweeps (``nt² + 4·nt``) so every task is
    emitted before its last predecessor finishes — empirically the
    point where the streamed panel-first schedule matches the
    materialised one — with a floor that keeps tiny problems trivially
    windowless.  Live memory is O(window) = O(nt²), against the
    O(nt³) task list the materialising path holds.
    """
    return max(4096, nt * nt + 4 * nt)


def simulate_cholesky(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    platform: Platform,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    record_events: bool = True,
    policy: str | None = None,
    stream: bool = False,
) -> SimReport:
    """Symbolic (time-only) mixed-precision Cholesky on a platform.

    No numerics: the DAG is built and priced, which is how the large
    matrix sizes of Figs. 8–11 are reproduced without forming the
    matrices.  ``policy`` selects the scheduling policy (see
    :mod:`repro.runtime.policies`; default ``panel-first``).

    ``stream=True`` is million-task mode: the same k-major emission
    (same task ids) is consumed lazily through
    :func:`repro.runtime.simulator.simulate_stream` with an emission
    window of :func:`default_stream_lookahead` tasks instead of being
    held as a graph, so peak memory is O(NT²) instead of O(NT³).  It
    chooses lazy versus held task objects, never a numbering.
    Restricted to frontier-local policies (panel-first, fifo,
    ooc-static).  A smaller window is a
    :func:`~repro.runtime.simulator.simulate_stream` argument.
    """
    if stream:
        nt = kernel_map.nt
        source = stream_cholesky_tasks(
            n, nb, kernel_map, strategy=strategy, grid=platform.process_grid()
        )
        return simulate_stream(
            source,
            platform,
            nb,
            lookahead=default_stream_lookahead(nt),
            record_events=record_events,
            policy=policy,
        )
    dag = build_cholesky_dag(
        n,
        nb,
        kernel_map,
        strategy=strategy,
        grid=platform.process_grid(),
    )
    return simulate(
        dag.graph,
        platform,
        nb,
        record_events=record_events,
        policy=policy,
    )
