"""PaRSEC-like task runtime: DAG, simulator, numeric executors."""

from .distributed import DistributedReport, execute_numeric_distributed
from .executor import execute_numeric
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
)
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
    "Task",
    "TaskGraph",
    "TaskInput",
    "TileRef",
    "Trace",
    "TraceEvent",
    "execute_numeric",
    "execute_numeric_distributed",
    "execute_numeric_parallel",
    "simulate",
    "simulate_replay",
    "simulate_stream",
]
