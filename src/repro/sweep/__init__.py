"""repro.sweep — the campaign engine.

The paper's headline results are sweeps (Monte Carlo estimation
campaigns, STC-vs-TTC comparisons, scaling grids); this package runs
them as first-class objects: a :class:`SweepGrid` of configurations fans
out over a process pool with deterministic per-run cache keys, per-run
obs manifests/metrics, and aggregated output as a results table plus a
``BENCH_*.json`` document for the perf trajectory.  See
``docs/SWEEPS.md`` and the ``repro sweep`` CLI subcommand.
"""

from .engine import SweepResult, SweepRun, execute_spec, run_sweep
from .grid import KERNEL_CONFIGS, RunSpec, SweepGrid

__all__ = [
    "KERNEL_CONFIGS",
    "RunSpec",
    "SweepGrid",
    "SweepResult",
    "SweepRun",
    "execute_spec",
    "run_sweep",
]
