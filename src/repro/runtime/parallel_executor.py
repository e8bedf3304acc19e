"""Multithreaded numeric execution of a task graph.

PaRSEC's whole point is asynchronous parallel execution; the sequential
:func:`repro.runtime.executor.execute_numeric` validates dataflow
semantics, and this module actually runs the DAG concurrently on host
threads.  NumPy kernels release the GIL inside BLAS, so tile kernels on
independent tiles genuinely overlap.

Scheduling is a thread-pool over the dependency frontier: a task becomes
runnable when its last predecessor completes, and a free thread takes
the ready task with the lowest ``(priority, tid)`` — panel tasks of
earlier iterations first.  A thread that takes a pure-FP16 GEMM also
takes the ready ones on tiles of its shape, up to the stacking rule's
depth, and runs them as one stack.  Results are bit-identical to the
sequential executor because every task consumes exactly the payloads its
inputs name; execution order and stacking cannot change the arithmetic
(asserted by tests).

The threads share the sequential executor's store, under the pool's one
lock: a tile version lives until its last reader has run, so the peak is
O(live tiles), not the O(NT³/6) versions a factorization makes.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor

from ..obs import traced
from ..tiles.kernels import Fp16Stacks
from ..tiles.tilematrix import TiledSymmetricMatrix
from .executor import _assemble, _execute_tasks, _seed_version0, _stack_shape, _task_span
from .task import Task, TaskGraph

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
    values = _seed_version0(graph, mat)

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

    def take() -> list[Task]:
        """The next ready task, and the ready FP16 GEMMs it stacks with (under the lock)."""
        batch = [tasks[heapq.heappop(ready)[1]]]
        shape = _stack_shape(batch[0], values)
        if shape is not None:
            mates = [e for e in ready if _stack_shape(tasks[e[1]], values) == shape]
            mates = set(mates[: Fp16Stacks.depth(shape) - 1])
            if mates:
                ready[:] = [e for e in ready if e not in mates]
                heapq.heapify(ready)
                batch += [tasks[t] for _priority, t in mates]
        return batch

    def run(batch: list[Task]) -> None:
        nonlocal remaining
        try:
            with _task_span(batch):
                results = _execute_tasks(batch, values)
        except BaseException as exc:  # propagate through the pool
            with lock:
                errors.append(exc)
                done.set()
            return
        with lock:
            for task, (key, tile) in zip(batch, results):
                values.commit(task, key, tile)
                for succ in succs[task.tid]:
                    in_count[succ] -= 1
                    if in_count[succ] == 0:
                        heapq.heappush(ready, (tasks[succ].priority, succ))
            remaining -= len(batch)
            if remaining == 0:
                done.set()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # simple work loop: each worker takes the highest-priority ready
        # task; exits when the graph is drained or an error surfaces
        def worker() -> None:
            while not done.is_set():
                with lock:
                    if errors or remaining == 0:
                        return
                    batch = take() if ready else None
                if batch is None:
                    done.wait(timeout=0.001)
                    continue
                run(batch)

        futures = [pool.submit(worker) for _ in range(n_threads)]
        for f in futures:
            f.result()

    if errors:
        raise errors[0]
    if remaining:
        raise RuntimeError(f"parallel execution stalled with {remaining} tasks left")

    return _assemble(graph, mat, values.finals())
