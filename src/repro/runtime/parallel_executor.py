"""Multithreaded numeric execution of a task graph.

PaRSEC's whole point is asynchronous parallel execution; the sequential
:func:`repro.runtime.executor.execute_numeric` validates dataflow
semantics, and this module actually runs the DAG concurrently on host
threads.  NumPy kernels release the GIL inside BLAS, so tile kernels on
independent tiles genuinely overlap.

Scheduling is a thread-pool over the dependency frontier: a task becomes
runnable when its last predecessor completes, and a free thread takes
the ready task with the lowest ``(priority, tid)`` — panel tasks of
earlier iterations first.  Results are bit-identical to the sequential
executor because every task consumes exactly the payloads its inputs
name; execution order cannot change the arithmetic (asserted by tests).

The threads share the sequential executor's store, under the pool's one
lock: a tile version lives until its last reader has run, so the peak is
O(live tiles), not the O(NT³/6) versions a factorization makes.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor

from ..obs import traced
from ..tiles.tilematrix import TiledSymmetricMatrix
from .executor import _collect_finals, _execute_task, _seed_version0, _task_span
from .task import TaskGraph

__all__ = ["execute_numeric_parallel"]


@traced("executor.parallel")
def execute_numeric_parallel(
    graph: TaskGraph,
    mat: TiledSymmetricMatrix,
    *,
    n_threads: int = 4,
) -> TiledSymmetricMatrix:
    """Run the task graph numerically on ``n_threads`` host threads.

    Same contract as :func:`repro.runtime.executor.execute_numeric`.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be positive")
    out = mat.copy()

    values = _seed_version0(graph, out)

    tasks = graph.tasks
    # read once, before the pool: walking the edges under the lock serialises it
    succs = [graph.successors(t) for t in range(len(graph))]
    in_count = [len(graph.predecessors(t)) for t in range(len(graph))]
    ready = [(tasks[t].priority, t) for t, n in enumerate(in_count) if n == 0]
    heapq.heapify(ready)
    remaining = len(graph)
    lock = threading.Lock()  # guards ready, in_count, remaining, values and errors
    done = threading.Event()
    errors: list[BaseException] = []

    def run_one(tid: int) -> None:
        nonlocal remaining
        task = tasks[tid]
        try:
            with _task_span(task):
                key, result = _execute_task(task, values)
        except BaseException as exc:  # propagate through the pool
            with lock:
                errors.append(exc)
                done.set()
            return
        with lock:
            values.commit(task, key, result)
            remaining -= 1
            for succ in succs[tid]:
                in_count[succ] -= 1
                if in_count[succ] == 0:
                    heapq.heappush(ready, (tasks[succ].priority, succ))
            if remaining == 0:
                done.set()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # simple work loop: each worker pops the highest-priority ready
        # task; exits when the graph is drained or an error surfaces
        def worker() -> None:
            while not done.is_set():
                with lock:
                    if errors or remaining == 0:
                        return
                    task_id = heapq.heappop(ready)[1] if ready else None
                if task_id is None:
                    done.wait(timeout=0.001)
                    continue
                run_one(task_id)

        futures = [pool.submit(worker) for _ in range(n_threads)]
        for f in futures:
            f.result()

    if errors:
        raise errors[0]
    if remaining:
        raise RuntimeError(f"parallel execution stalled with {remaining} tasks left")

    return _collect_finals(values, out)
