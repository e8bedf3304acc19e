"""Distributed-memory numeric execution over OS processes.

The paper's runtime executes the Cholesky DAG across MPI ranks (one per
GPU) with the automated conversion strategy deciding each payload's wire
precision.  This module reproduces that execution model with real
message passing: one OS process per rank, per-rank inbox queues, and
payloads that travel **already quantised to the edge's communication
precision** — the sender-side conversion of STC happens where the paper
puts it, and receivers re-quantise to their kernel's needs.

Ranks process the graph in a single *global* topological order: each
rank executes the tasks it owns, blocks on its inbox for remote
payloads, and pushes its outputs to every remote consumer rank.  The
default order is task-id order; a scheduling policy substitutes the
policy-guided topological order from
:func:`repro.runtime.policies.policy_topological_order`, which every
rank derives identically.  Because every blocking wait is for a task
strictly earlier in that shared order, the protocol is deadlock-free by
induction on order positions; because local reads see full-storage
values and remote reads see sender-quantised payloads — exactly the
sequential executor's semantics — the result is bit-identical to
:func:`repro.runtime.executor.execute_numeric` for *every* policy
(asserted in tests).

Prefers the ``fork`` start method (workers inherit the graph and the
input matrix for free) and falls back to ``forkserver``/``spawn`` on
platforms without ``fork`` — every payload crossing the process boundary
is picklable, so all three methods compute identically.  It is a
faithful miniature of an SPMD MPI program rather than a literal MPI
binding (mpi4py is unavailable offline; see DESIGN.md's substitution
table).
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from ..faults import FaultInjector, FaultPlan, pick_mp_context, record_faults
from ..obs import emit_event, get_registry
from ..obs.alerts import RANK_AGE_GAUGE
from ..obs.live import set_live_gauge
from ..precision.emulate import quantize
from ..precision.formats import Precision
from ..tiles.tilematrix import TiledSymmetricMatrix
from .executor import _execute_task, _seed_version0
from .task import TaskGraph

__all__ = [
    "DistributedReport",
    "execute_numeric_distributed",
]

_DEFAULT_TIMEOUT = 120.0
#: how long an exited-but-silent rank gets to flush its result queue
#: before the parent declares it dead (covers the exit-0 race where the
#: feeder thread is still draining when the process object shows exited)
_EXIT_GRACE = 1.0


class _RollingDeadline:
    """A timeout that bounds each *wait*, not the whole collection.

    ``timeout`` promises that no single blocking wait outlasts it; every
    received result refreshes the window.  A large grid whose results
    trickle in therefore never times out spuriously — only genuine
    silence for ``timeout`` seconds does.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(self, timeout: float, clock=time.monotonic) -> None:
        self.timeout = timeout
        self._clock = clock
        self.refresh()

    def refresh(self) -> None:
        self._expires = self._clock() + self.timeout

    def expired(self) -> bool:
        return self._clock() > self._expires

    def remaining(self) -> float:
        return max(0.0, self._expires - self._clock())


@dataclass(frozen=True)
class DistributedReport:
    """Outcome of a resilient distributed execution.

    ``degraded`` is True when rank loss forced the sequential re-execution
    path (the result is then the sequential executor's, bit-identical to
    a healthy distributed run); ``error`` records the failure that
    triggered it; ``dead_ranks`` the ranks the parent declared dead.
    ``heartbeat_ages`` is the parent's last observation of each rank's
    heartbeat age in seconds (0.0 once the rank reported its result) —
    a *hung* rank, alive but silent, shows up here even though dead-peer
    detection never fires for it.
    """

    matrix: TiledSymmetricMatrix
    degraded: bool = False
    error: str | None = None
    dead_ranks: tuple[int, ...] = ()
    heartbeat_ages: dict[int, float] = field(default_factory=dict)


def _consumer_plan(graph: TaskGraph) -> dict[int, list[tuple[int, Precision]]]:
    """Per producing task: the (remote rank, payload precision) sends."""
    plan: dict[int, list[tuple[int, Precision]]] = {}
    for task in graph:
        for inp in task.inputs:
            if inp.producer is None:
                continue
            producer = graph.tasks[inp.producer]
            if producer.rank == task.rank:
                continue
            sends = plan.setdefault(inp.producer, [])
            entry = (task.rank, inp.payload_precision)
            if entry not in sends:
                sends.append(entry)
    return plan


def _die(spec) -> None:
    """Carry out an armed ``kill_rank`` fault in this process."""
    if spec.mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "exit0":
        # exits "cleanly" without posting a result — exercises the
        # parent's exited-but-pending detection, not just exitcode != 0
        os._exit(0)
    else:  # "exception": the rank reports its own failure
        from ..faults import FaultInjectedError

        raise FaultInjectedError(f"injected kill_rank (mode=exception): {spec.note}")


def _rank_main(
    rank: int,
    graph: TaskGraph,
    mat: TiledSymmetricMatrix,
    inboxes,
    results,
    timeout: float,
    fault_plan: dict | None = None,
    policy: str | None = None,
    heartbeats=None,
) -> None:
    # every result tuple carries the kinds of the faults this rank fired:
    # its own registry and log die with it, so the parent records them
    injector = FaultInjector(fault_plan)
    try:
        values = _seed_version0(graph, mat, rank)
        plan = _consumer_plan(graph)
        inbox = inboxes[rank]
        stash: dict[tuple[int, int, int, int], np.ndarray] = {}
        n_sent = 0  # outbound payload counter for message faults
        if heartbeats is not None:
            # wall clock: shared across processes, unlike monotonic
            heartbeats[rank] = time.time()

        def recv(key: tuple[int, int, int, int]) -> np.ndarray:
            while key not in stash:
                # per-wait deadline: `timeout` bounds each blocking read,
                # not the sum of all of them
                i, j, v, p, data = inbox.get(timeout=timeout)
                stash[(i, j, v, p)] = data
            return stash[key]

        if policy is None:
            order = graph.topological_order()
        else:
            # every rank computes the same policy-guided global order,
            # so cross-rank waits stay acyclic (deadlock-free induction)
            from .policies import policy_topological_order

            order = policy_topological_order(graph, policy, nb=mat.nb)
        for tid in order:
            task = graph.tasks[tid]
            if task.rank != rank:
                continue
            kill = injector.kill_at(rank, tid)
            if kill is not None:
                _die(kill)
            # gather remote inputs
            for inp in task.inputs:
                key3 = (inp.tile.i, inp.tile.j, inp.tile.version)
                if key3 in values:
                    continue
                if inp.producer is None:
                    raise KeyError(f"rank {rank}: missing host tile {key3}")
                payload = recv((*key3, int(inp.payload_precision)))
                values[key3] = payload
            out_key, result = _execute_task(task, values)
            values[out_key] = result
            if heartbeats is not None:
                heartbeats[rank] = time.time()
            # ship to remote consumers at each edge's wire precision
            for dest, prec in plan.get(tid, ()):
                fault = injector.message_fault(rank, n_sent)
                n_sent += 1
                if fault is not None:
                    if fault.kind == "drop_message":
                        continue  # the consumer will starve and time out
                    time.sleep(fault.delay_s)
                inboxes[dest].put((*out_key, int(prec), quantize(result, prec)))

        # report final version of every tile this rank owns
        finals: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
        for task in graph:
            if task.rank != rank:
                continue
            key = (task.output.i, task.output.j)
            v = task.output.version
            if key not in finals or v > finals[key][0]:
                finals[key] = (v, values[(key[0], key[1], v)])
        results.put((rank, {k: v[1] for k, v in finals.items()}, None, injector.fired))
    except BaseException as exc:  # surface worker failures to the parent
        results.put((rank, {}, repr(exc), injector.fired))


def execute_numeric_distributed(
    graph: TaskGraph,
    mat: TiledSymmetricMatrix,
    n_ranks: int,
    *,
    timeout: float = _DEFAULT_TIMEOUT,
    fault_plan: FaultPlan | dict | None = None,
    degrade: bool = False,
    return_report: bool = False,
    policy: str | None = None,
    silent_after: float | None = None,
) -> TiledSymmetricMatrix | DistributedReport:
    """Execute the graph numerically across ``n_ranks`` processes.

    ``policy`` (a scheduling-policy name; see
    :mod:`repro.runtime.policies`) reorders each rank's local execution
    along the policy-guided global topological order; ``None`` keeps the
    historical task-id order.  Results are bit-identical either way.

    ``graph`` must have been built for a process grid with exactly
    ``n_ranks`` ranks (task ``rank`` fields in ``[0, n_ranks)``).
    ``timeout`` bounds every blocking wait — each worker inbox read and
    each parent wait for the *next* result (the collection deadline is
    refreshed whenever a rank reports, so trickling results never time
    out spuriously).  Any pending rank that exits without posting a
    result — crashed (non-zero exit) *or* silently gone (exit 0, e.g.
    killed mid-queue-flush) — is declared dead within
    ``_EXIT_GRACE`` seconds and the execution fails fast.

    Workers stamp a shared-memory heartbeat after every task, so the
    parent can tell a *hung* rank (alive but silent) from a slow one:
    once a pending rank's heartbeat age exceeds ``silent_after``
    (default ``timeout / 2``) the parent emits a
    ``distributed.rank_silent`` obs-event at alert severity — once per
    rank — and publishes per-rank ages as live-plane gauges
    (``rank_heartbeat_age[<r>]``), which the ``rank-silent`` alert rule
    watches.  Silence alone never aborts: the rolling collection
    deadline still owns the timeout decision.  The final observed ages
    land in :attr:`DistributedReport.heartbeat_ages`.

    ``fault_plan`` injects scripted failures (see :mod:`repro.faults`);
    each rank reports the kinds it fired with its result and the parent
    records them (:func:`repro.faults.record_faults`) — a rank that dies
    by ``sigkill``/``exit0`` reports nothing and counts only in
    ``distributed.rank_deaths``.  ``degrade=True`` recovers from
    unrecoverable rank loss by re-executing sequentially via
    :func:`repro.runtime.executor.execute_numeric` (bit-identical to a
    healthy distributed run) instead of raising; ``return_report=True``
    returns a :class:`DistributedReport` carrying the matrix plus the
    ``degraded`` flag, error, and dead ranks.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be positive")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    used = {t.rank for t in graph}
    if used and max(used) >= n_ranks:
        raise ValueError(f"graph uses rank {max(used)} but only {n_ranks} ranks given")

    if n_ranks == 1:
        from .executor import execute_numeric

        out = execute_numeric(graph, mat)
        return DistributedReport(matrix=out) if return_report else out

    plan_dict = None
    if fault_plan is not None:
        plan = fault_plan if isinstance(fault_plan, FaultPlan) else FaultPlan.from_dict(fault_plan)
        plan_dict = plan.to_dict()

    ctx = pick_mp_context()
    inboxes = [ctx.Queue() for _ in range(n_ranks)]
    results = ctx.Queue()
    # wall-clock heartbeat stamps, one double per rank, shared memory so
    # the parent reads them without any queue traffic
    heartbeats = ctx.Array("d", n_ranks)
    procs = [
        ctx.Process(
            target=_rank_main,
            args=(r, graph, mat, inboxes, results, timeout, plan_dict, policy,
                  heartbeats),
        )
        for r in range(n_ranks)
    ]
    for p in procs:
        p.start()
    out = mat.copy()
    error: str | None = None
    dead_ranks: tuple[int, ...] = ()
    pending = set(range(n_ranks))
    deadline = _RollingDeadline(timeout)
    exit_seen: dict[int, float] = {}  # rank -> when we first saw it exited
    silent_limit = silent_after if silent_after is not None else timeout / 2.0
    silent_reported: set[int] = set()
    heartbeat_ages: dict[int, float] = {}
    try:
        while pending and error is None:
            try:
                rank, finals, err, fired = results.get(timeout=0.2)
            except queue_mod.Empty:
                # hung-rank visibility: a rank can be alive yet silent
                # (deadlocked wait, delayed message) — dead-peer scans
                # below never see it.  Surface its heartbeat age.
                now_wall = time.time()
                max_age = 0.0
                for r in sorted(pending):
                    stamp = heartbeats[r]
                    if stamp <= 0.0:
                        continue  # worker not started yet
                    age = max(0.0, now_wall - stamp)
                    heartbeat_ages[r] = age
                    set_live_gauge(f"{RANK_AGE_GAUGE}[{r}]", age)
                    if age > max_age:
                        max_age = age
                    if (
                        age > silent_limit
                        and r not in silent_reported
                        and procs[r].is_alive()
                    ):
                        silent_reported.add(r)
                        get_registry().counter(
                            "distributed.rank_silent",
                            "alive ranks whose heartbeat went stale",
                        ).inc()
                        emit_event(
                            "distributed.rank_silent",
                            {"rank": r, "age_seconds": age,
                             "silent_after": silent_limit},
                            severity="alert",
                        )
                set_live_gauge("max_rank_heartbeat_age", max_age)
                # fail fast on peers that exited without posting a result.
                # A rank that finished normally posts *before* exiting, so
                # any exited-but-pending rank is dead — crashed ranks
                # (non-zero exit) immediately, clean exits (code 0, e.g.
                # killed mid-queue-flush or returned early) after a short
                # grace window that lets an in-flight queue flush land.
                now = time.monotonic()
                dead = []
                for r in sorted(pending):
                    code = procs[r].exitcode
                    if code is None:
                        continue
                    if code != 0:
                        dead.append(r)
                    elif now - exit_seen.setdefault(r, now) > _EXIT_GRACE:
                        dead.append(r)
                if dead:
                    codes = ", ".join(f"rank {r} exit {procs[r].exitcode}" for r in dead)
                    error = f"peer rank(s) died without reporting: {codes}"
                    dead_ranks = tuple(dead)
                    break
                if deadline.expired():
                    ages = ", ".join(
                        f"rank {r} hb {heartbeat_ages.get(r, 0.0):.1f}s"
                        for r in sorted(pending)
                    )
                    error = (
                        f"distributed execution timed out after {timeout:g} s"
                        + (f" ({ages})" if ages else "")
                    )
                    break
                continue
            pending.discard(rank)
            record_faults(fired, rank=rank)
            heartbeat_ages[rank] = 0.0  # reported = fresh by definition
            set_live_gauge(f"{RANK_AGE_GAUGE}[{rank}]", 0.0)
            deadline.refresh()  # progress: `timeout` bounds each wait, not all
            if err is not None:
                # fail fast: peers may be blocked waiting on the failed rank
                error = f"rank {rank}: {err}"
                dead_ranks = (rank,)
                break
            for (i, j), data in finals.items():
                out.set(i, j, data, precision=out.precision_of(i, j))
    finally:
        for p in procs:
            if error is not None and p.is_alive():
                p.terminate()
            p.join(timeout=10)
            if p.is_alive():
                p.terminate()
    if error is not None:
        registry = get_registry()
        registry.counter(
            "distributed.rank_deaths", "ranks the parent declared dead"
        ).inc(len(dead_ranks) or 1)
        emit_event("distributed.failure",
                   {"error": error, "dead_ranks": list(dead_ranks)})
        if not degrade:
            raise RuntimeError(error)
        # graceful degradation: the distributed protocol is bit-identical
        # to the sequential executor, so re-running sequentially recovers
        # the exact result the healthy run would have produced
        registry.counter(
            "distributed.degraded", "runs recovered via sequential re-execution"
        ).inc()
        from .executor import execute_numeric

        seq = execute_numeric(graph, mat)
        emit_event("distributed.degraded", {"error": error})
        report = DistributedReport(
            matrix=seq, degraded=True, error=error, dead_ranks=dead_ranks,
            heartbeat_ages=dict(heartbeat_ages),
        )
        return report if return_report else report.matrix
    if return_report:
        return DistributedReport(matrix=out, heartbeat_ages=dict(heartbeat_ages))
    return out
