"""Critical-path lower bound on a schedule's makespan: the test tree's oracle.

Every scheduling policy's simulated makespan is held to it
(``tests/test_scheduler_properties.py``).
"""

from __future__ import annotations

from repro.perfmodel.kernels import kernel_time


def graph_cost_lower_bound(graph, platform, nb: int) -> float:
    """The longest dependency chain under kernel-only perfmodel costs.

    Conversions and transfers only add time, so every simulated makespan
    is ≥ this bound regardless of policy.
    """
    gpu = platform.gpu
    return graph.critical_path_length(
        duration=lambda t: kernel_time(gpu, t.kind, nb, t.precision)
    )
