"""PaRSEC-like task runtime: DAG, simulator, numeric executors."""

from .distributed import DistributedReport, execute_numeric_distributed
from .executor import execute_numeric
from .gantt import ascii_gantt, to_chrome_trace
from .parallel_executor import execute_numeric_parallel
from .platform import Platform
from .policies import (
    POLICY_NAMES,
    CommAwareEftPolicy,
    CriticalPathPolicy,
    FifoPolicy,
    OocStaticPolicy,
    PanelFirstPolicy,
    SchedulePolicy,
    get_policy,
    policy_topological_order,
)
from .schedule import StaticSchedule
from .simulator import SimReport, simulate, simulate_replay, simulate_stream
from .task import Task, TaskGraph, TaskInput, TileRef
from .tracing import RunStats, Trace, TraceEvent

__all__ = [
    "CommAwareEftPolicy",
    "CriticalPathPolicy",
    "DistributedReport",
    "FifoPolicy",
    "OocStaticPolicy",
    "POLICY_NAMES",
    "PanelFirstPolicy",
    "Platform",
    "SchedulePolicy",
    "RunStats",
    "SimReport",
    "StaticSchedule",
    "Task",
    "TaskGraph",
    "TaskInput",
    "TileRef",
    "Trace",
    "TraceEvent",
    "ascii_gantt",
    "execute_numeric",
    "execute_numeric_distributed",
    "execute_numeric_parallel",
    "get_policy",
    "policy_topological_order",
    "simulate",
    "simulate_replay",
    "simulate_stream",
    "to_chrome_trace",
]
