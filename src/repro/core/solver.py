"""Public solver API tying the adaptive framework together.

:class:`MPCholeskySolver` is the entry point a downstream user touches:
give it an :class:`~repro.core.config.MPConfig` and a tiled SPD matrix
and it plans the precision maps (Fig. 2), runs Algorithm 2 (Fig. 4),
factorizes numerically, and can price the same factorization on a
simulated GPU platform (Figs. 8–12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.live import announce_total
from ..perfmodel.gpus import GPUSpec
from ..runtime.executor import execute_numeric
from ..runtime.platform import Platform
from ..runtime.schedule import StaticSchedule
from ..runtime.simulator import SimReport, simulate, simulate_replay, simulate_stream
from ..tiles.norms import tile_norms
from ..tiles.tilematrix import TiledSymmetricMatrix
from .cholesky import CholeskyResult, logdet_from_factor, mp_cholesky, solve_with_factor
from .config import ConversionStrategy, MPConfig
from .conversion import CommPrecisionMap, build_comm_precision_map
from .dag_cholesky import CholeskyDag, build_cholesky_dag, stream_cholesky_tasks, cholesky_task_count
from .precision_map import KernelPrecisionMap, build_precision_map

__all__ = [
    "FactorizationPlan",
    "MPCholeskySolver",
    "default_stream_lookahead",
    "replay_cholesky",
    "simulate_cholesky",
]


@dataclass
class FactorizationPlan:
    """Precision planning output for one matrix."""

    kernel_map: KernelPrecisionMap
    comm_map: CommPrecisionMap
    config: MPConfig

    def summary(self) -> str:
        fracs = self.kernel_map.tile_fractions()
        parts = [f"{p.name}: {f * 100:.1f}%" for p, f in sorted(fracs.items(), reverse=True)]
        stc = self.comm_map.stc_fraction()
        return f"tiles [{', '.join(parts)}]; STC on {stc * 100:.1f}% of communications"


class MPCholeskySolver:
    """Adaptive mixed-precision Cholesky with automated precision conversion."""

    def __init__(self, config: MPConfig | None = None) -> None:
        self.config = config or MPConfig()

    # -- planning ---------------------------------------------------------
    def plan(self, mat: TiledSymmetricMatrix) -> FactorizationPlan:
        """Build the kernel- and communication-precision maps for ``mat``."""
        norms = tile_norms(mat)
        return self.plan_from_norms(norms)

    def plan_from_norms(self, norms: np.ndarray) -> FactorizationPlan:
        """Plan from a (possibly sampled) tile-norm array (Fig. 7 scale)."""
        kmap = build_precision_map(norms, self.config.accuracy, self.config.formats)
        cmap = build_comm_precision_map(kmap)
        return FactorizationPlan(kernel_map=kmap, comm_map=cmap, config=self.config)

    # -- numeric factorization ---------------------------------------------
    def factorize(
        self,
        mat: TiledSymmetricMatrix,
        plan: FactorizationPlan | None = None,
    ) -> CholeskyResult:
        """Numerically factor ``mat`` (sequential reference path)."""
        plan = plan or self.plan(mat)
        return mp_cholesky(
            mat,
            plan.kernel_map,
            strategy=self.config.strategy,
            comm_map=plan.comm_map,
        )

    def factorize_via_runtime(
        self,
        mat: TiledSymmetricMatrix,
        platform: Platform | None = None,
        plan: FactorizationPlan | None = None,
    ) -> tuple[TiledSymmetricMatrix, SimReport]:
        """Factor through the task runtime: numeric result + simulated cost."""
        plan = plan or self.plan(mat)
        dag = self._dag(mat.n, mat.nb, plan, platform)
        factor = execute_numeric(dag.graph, mat)
        platform = platform or Platform.single_gpu(_default_gpu())
        report = simulate(dag.graph, platform, mat.nb)
        return factor, report

    def _dag(
        self,
        n: int,
        nb: int,
        plan: FactorizationPlan,
        platform: Platform | None,
    ) -> CholeskyDag:
        grid = platform.process_grid() if platform is not None else None
        return build_cholesky_dag(
            n,
            nb,
            plan.kernel_map,
            strategy=self.config.strategy,
            grid=grid,
            comm_map=plan.comm_map,
        )

    # -- convenience -------------------------------------------------------
    @staticmethod
    def logdet(result: CholeskyResult) -> float:
        return logdet_from_factor(result.factor)

    @staticmethod
    def solve(result: CholeskyResult, rhs: np.ndarray) -> np.ndarray:
        return solve_with_factor(result.factor, rhs)


def _default_gpu() -> GPUSpec:
    from ..perfmodel.gpus import V100

    return V100


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
    enforce_memory: bool = True,
    record_events: bool = True,
    policy: str | None = None,
    stream: bool = False,
    lookahead: int | None = None,
) -> SimReport:
    """Symbolic (time-only) mixed-precision Cholesky on a platform.

    No numerics: the DAG is built and priced, which is how the large
    matrix sizes of Figs. 8–11 are reproduced without forming the
    matrices.  ``policy`` selects the scheduling policy (see
    :mod:`repro.runtime.policies`; default ``panel-first``).

    ``stream=True`` is million-task mode: the same k-major emission
    (same task ids) is consumed lazily through
    :func:`repro.runtime.simulator.simulate_stream` with an emission
    window of ``lookahead`` tasks (default
    :func:`default_stream_lookahead`) instead of being held as a graph,
    so peak memory is O(NT²) instead of O(NT³).  It chooses lazy versus
    held task objects, never a numbering.  Restricted to frontier-local
    policies (panel-first, fifo, ooc-static).
    """
    if stream:
        nt = kernel_map.nt
        # the stream itself doesn't know its length; tell the live plane
        announce_total(cholesky_task_count(nt))
        source = stream_cholesky_tasks(
            n, nb, kernel_map, strategy=strategy, grid=platform.process_grid()
        )
        return simulate_stream(
            source,
            platform,
            nb,
            lookahead=lookahead if lookahead is not None else default_stream_lookahead(nt),
            enforce_memory=enforce_memory,
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
        enforce_memory=enforce_memory,
        record_events=record_events,
        policy=policy,
    )


def replay_cholesky(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    platform: Platform,
    schedule: StaticSchedule,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    enforce_memory: bool = True,
    record_events: bool = True,
) -> SimReport:
    """Re-execute an exported :class:`StaticSchedule` with no scheduler.

    Rebuilds the Cholesky DAG, validates the schedule's fingerprint
    against it, and runs
    :func:`repro.runtime.simulator.simulate_replay` — bit-identical to
    the run that produced the schedule, without any ready-heap or
    policy-key work.
    """
    dag = build_cholesky_dag(
        n,
        nb,
        kernel_map,
        strategy=strategy,
        grid=platform.process_grid(),
    )
    schedule.validate_against(len(dag.graph), platform)
    return simulate_replay(
        dag.graph,
        platform,
        nb,
        schedule.order,
        enforce_memory=enforce_memory,
        record_events=record_events,
        source_policy=schedule.policy,
    )
