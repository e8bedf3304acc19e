"""Multithreaded numeric execution of a task graph.

PaRSEC's whole point is asynchronous parallel execution; the sequential
:func:`repro.runtime.executor.execute_numeric` validates dataflow
semantics, and this module actually runs the DAG concurrently on host
threads.  NumPy kernels release the GIL inside BLAS, so tile kernels on
independent tiles genuinely overlap.

Scheduling is a thread-pool over the dependency frontier: a task becomes
runnable when its last predecessor completes; ties are broken by a
pluggable :class:`~repro.runtime.policies.SchedulePolicy` (default: the
same panel-first priority the simulator uses).  Results are bit-identical
to the sequential executor — and across policies — because every task
consumes exactly the payloads its inputs name; execution order cannot
change the arithmetic (asserted by tests).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from ..obs import traced
from ..tiles.tilematrix import TiledSymmetricMatrix
from .executor import _collect_finals, _execute_task, _seed_version0, _task_span
from .policies import ReadyFrontier, SchedulePolicy, resolve_policy
from .task import TaskGraph

__all__ = ["execute_numeric_parallel"]


@traced("executor.parallel")
def execute_numeric_parallel(
    graph: TaskGraph,
    mat: TiledSymmetricMatrix,
    *,
    n_threads: int = 4,
    policy: str | SchedulePolicy | None = None,
) -> TiledSymmetricMatrix:
    """Run the task graph numerically on ``n_threads`` host threads.

    Same contract as :func:`repro.runtime.executor.execute_numeric`.
    ``policy`` orders the ready heap (default panel-first); it changes
    which runnable task a free thread grabs, never the arithmetic.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be positive")
    sched = resolve_policy(policy)
    sched.prepare(graph, None, mat.nb)
    out = mat.copy()

    values = _seed_version0(graph, out)

    frontier = ReadyFrontier(graph, sched)
    lock = threading.Lock()  # guards frontier, values and errors
    done = threading.Event()
    errors: list[BaseException] = []

    def run_one(tid: int) -> None:
        task = graph.tasks[tid]
        try:
            with _task_span(task):
                key, result = _execute_task(task, values)
        except BaseException as exc:  # propagate through the pool
            with lock:
                errors.append(exc)
                done.set()
            return
        with lock:
            values[key] = result
            frontier.complete(tid)
            if frontier.remaining == 0:
                done.set()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # simple work loop: each worker pops the highest-priority ready
        # task; exits when the graph is drained or an error surfaces
        def worker() -> None:
            while not done.is_set():
                with lock:
                    if errors or frontier.remaining == 0:
                        return
                    task_id = frontier.pop()
                if task_id is None:
                    done.wait(timeout=0.001)
                    continue
                run_one(task_id)

        futures = [pool.submit(worker) for _ in range(n_threads)]
        for f in futures:
            f.result()

    if errors:
        raise errors[0]
    if frontier.remaining:
        raise RuntimeError(f"parallel execution stalled with {frontier.remaining} tasks left")

    return _collect_finals(values, out)
