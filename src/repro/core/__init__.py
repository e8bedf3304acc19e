"""The paper's core contribution: adaptive mixed-precision Cholesky with
automated precision conversion on (simulated) heterogeneous platforms."""

from .cholesky import CholeskyResult, logdet_from_factor, mp_cholesky, solve_with_factor
from .config import ConversionStrategy, MPConfig
from .conversion import (
    CommPrecisionMap,
    accumulator_encoding,
    build_comm_precision_map,
    input_encoding,
    needs_conversion,
    payload_encoding,
)
from .dag_cholesky import CholeskyDag, build_cholesky_dag, cholesky_task_count, stream_cholesky_tasks
from .refinement import RefinementResult, refine_solve
from .precision_map import (
    FIXED_CONFIGS,
    KernelPrecisionMap,
    band_precision_map,
    build_precision_map,
    fixed_config_map,
    two_precision_map,
    uniform_map,
)
from .solver import (
    FactorizationPlan,
    MPCholeskySolver,
    default_stream_lookahead,
    replay_cholesky,
    simulate_cholesky,
)

__all__ = [
    "CholeskyDag",
    "CholeskyResult",
    "CommPrecisionMap",
    "ConversionStrategy",
    "FIXED_CONFIGS",
    "FactorizationPlan",
    "KernelPrecisionMap",
    "MPCholeskySolver",
    "MPConfig",
    "RefinementResult",
    "accumulator_encoding",
    "band_precision_map",
    "build_cholesky_dag",
    "cholesky_task_count",
    "build_comm_precision_map",
    "build_precision_map",
    "input_encoding",
    "logdet_from_factor",
    "mp_cholesky",
    "needs_conversion",
    "payload_encoding",
    "refine_solve",
    "default_stream_lookahead",
    "fixed_config_map",
    "replay_cholesky",
    "simulate_cholesky",
    "stream_cholesky_tasks",
    "solve_with_factor",
    "two_precision_map",
    "uniform_map",
]
