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

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor

from ..obs import traced
from ..tiles.tilematrix import TiledSymmetricMatrix
from .executor import _collect_finals, _execute_task, _mat_tiles, _seed_version0, _task_span
from .policies import SchedState, SchedulePolicy, resolve_policy
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
    # no engine/cache model here: the explicit null state (nothing
    # resident) keeps residency-aware policies deterministic instead of
    # silently dropping the state argument
    state = SchedState.null()
    out = mat.copy()

    values = _seed_version0(graph, _mat_tiles(out))

    n = len(graph)
    in_count = [len(graph.predecessors(t)) for t in range(n)]
    lock = threading.Lock()
    ready: list[tuple[float, float, int]] = []  # (*policy key, tid)
    for tid in range(n):
        if in_count[tid] == 0:
            heapq.heappush(ready, (*sched.key(graph.tasks[tid], 0.0, state), tid))
    done = threading.Event()
    errors: list[BaseException] = []
    remaining = [n]

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
        newly_ready = []
        with lock:
            values[key] = result
            for succ in graph.successors(tid):
                in_count[succ] -= 1
                if in_count[succ] == 0:
                    newly_ready.append(succ)
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()
            for s in newly_ready:
                heapq.heappush(ready, (*sched.key(graph.tasks[s], 0.0, state), s))

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # simple work loop: each worker pops the highest-priority ready
        # task; exits when the graph is drained or an error surfaces
        def worker() -> None:
            while not done.is_set():
                with lock:
                    if errors or (remaining[0] == 0):
                        return
                    if not ready:
                        task_id = None
                    else:
                        task_id = heapq.heappop(ready)[-1]
                if task_id is None:
                    done.wait(timeout=0.001)
                    continue
                run_one(task_id)

        futures = [pool.submit(worker) for _ in range(n_threads)]
        for f in futures:
            f.result()

    if errors:
        raise errors[0]
    if remaining[0] != 0:
        raise RuntimeError(f"parallel execution stalled with {remaining[0]} tasks left")

    return _collect_finals(values, out)
