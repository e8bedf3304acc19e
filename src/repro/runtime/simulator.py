"""Discrete-event simulation of a task graph on a GPU platform.

This is the substitute for executing PaRSEC on real Summit/Guyot/Haxane
hardware.  Each rank (= one GPU) has three engines — a serial compute
stream, an h2d copy engine, and a d2h copy engine — and each node has an
injection NIC.  Tasks run on the rank that owns the tile they write
(owner-computes, as in the paper's PTG); every payload a task consumes is
tracked through the memory hierarchy:

* produced on the same GPU → free (unless evicted meanwhile);
* on another GPU of the same node → d2h at the producer, h2d at the
  consumer, staged through host memory;
* on another node → d2h, NIC message, h2d.

Data is cached per GPU under an LRU policy keyed by
``(tile, version, payload precision)``.  Every eviction is counted;
evictions flush through the d2h engine when the entry is dirty or the
host holds no copy of the key, while clean entries the host already
holds are dropped for free — this is what makes larger-than-GPU-memory
matrices stream, and what amplifies the byte savings of STC payloads.

Datatype conversions are charged where the strategy puts them: once on
the sender's compute stream for STC payloads, and on every consuming
task's compute stream when the payload encoding differs from the kernel's
input encoding (the TTC overhead the paper highlights in Section VI).

Scheduling is policy-driven list scheduling: a pluggable
:class:`~repro.runtime.policies.SchedulePolicy` owns the ready heap's
comparator (explicit key ``(*policy.key(task, ready), tid)``).  The
default ``panel-first`` policy keeps the historical
``(ready, priority, tid)`` order — the classic Cholesky priority (panel
tasks of earlier iterations first), a faithful stand-in for PaRSEC's
asynchronous, priority-driven scheduler at the fidelity level of this
model — and ``critical-path``, ``comm-aware-eft``, and ``fifo`` expose
the scheduler sensitivity the paper's STC-vs-TTC results rest on (see
``docs/SCHEDULING.md``).  Policies only affect timing: every task
consumes exactly the payloads its inputs name, so numerics are
policy-invariant by construction.

One scheduling loop (:func:`_drive`) runs every simulation; what varies
is only its two sources:

* the **task source** — a finalized
  :class:`~repro.runtime.task.TaskGraph` (one emission of the whole
  task list, unbounded window, nothing retired), or a lazy task iterator
  (:func:`repro.core.dag_cholesky.stream_cholesky_tasks`) appended into
  a frontier graph under a bounded emission window, each task retired
  once it has executed, so peak memory follows the window instead of
  the DAG;
* the **order source** — the policy-keyed ready heap, or a recorded
  task-id sequence (the degenerate policy: no heap, no key calls),
  checked against the same in-degree bookkeeping the heap path keeps.

Either way, all tasks pulled in one window fill are host-seeded before
any newly ready task of that fill is keyed.  The public entry points
only name their sources:

* :func:`simulate` — finalized graph × policy heap (regression-pinned
  bit-identical for panel-first);
* :func:`simulate_stream` — lazy stream × policy heap, million-task
  mode (see ``docs/SCHEDULING.md``);
* :func:`simulate_replay` — finalized graph × recorded order, the
  exported static schedules of :mod:`repro.runtime.schedule`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..obs import emit_event, get_registry, traced
from ..obs.live import BEAT_STRIDE, run_finished, run_started
from ..obs.profile import hot_region
from ..perfmodel.kernels import conversion_time, kernel_time
from ..precision.formats import Precision, bytes_per_element
from .platform import Platform
from .policies import SchedState, SchedulePolicy, resolve_policy
from .task import Task, TaskGraph, TaskInput
from .tracing import RunStats, Trace, TraceEvent
from ..core.conversion import needs_conversion

__all__ = ["SimReport", "simulate", "simulate_stream", "simulate_replay"]

# payload keys: (i, j, version, payload_precision)
_Key = tuple[int, int, int, Precision]


@dataclass
class SimReport:
    """Result of one simulated run."""

    makespan: float
    stats: RunStats
    trace: Trace
    task_end: list[float] = field(default_factory=list)
    #: when each task's compute interval began (conversions included)
    task_start: list[float] = field(default_factory=list)
    #: name of the scheduling policy that produced this schedule
    policy: str = "panel-first"
    #: most Task objects alive at once (== n_tasks for the materialising
    #: path; the emission-window high-water mark for simulate_stream)
    peak_live_tasks: int = 0
    #: task ids in the order the scheduler committed them to their
    #: engines — the input to :func:`simulate_replay` and
    #: :class:`repro.runtime.schedule.StaticSchedule`
    commit_order: list[int] = field(default_factory=list)

    @property
    def gflops(self) -> float:
        return self.stats.gflops


class _Lru:
    """Byte-bounded LRU cache of payload keys on one GPU.

    Eviction hands ``(key, bytes, dirty)`` back to the simulator, which
    counts every eviction and writes back through the d2h engine only
    when the entry is dirty or the host holds no copy; clean entries the
    host already holds are dropped without traffic.
    """

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[_Key, tuple[int, bool]]" = OrderedDict()  # key -> (bytes, dirty)
        self.bytes = 0

    def __contains__(self, key: _Key) -> bool:
        return key in self.entries

    def touch(self, key: _Key) -> None:
        self.entries.move_to_end(key)

    def insert(self, key: _Key, nbytes: int, dirty: bool) -> None:
        if key in self.entries:
            old_bytes, old_dirty = self.entries.pop(key)
            self.bytes -= old_bytes
            dirty = dirty or old_dirty
        self.entries[key] = (nbytes, dirty)
        self.bytes += nbytes

    def evict_until_fits(self, protect: set[_Key]) -> list[tuple[_Key, int, bool]]:
        """Evict least-recently-used entries until within capacity."""
        evicted: list[tuple[_Key, int, bool]] = []
        if self.capacity <= 0 or self.bytes <= self.capacity:
            return evicted
        skipped: list[tuple[_Key, tuple[int, bool]]] = []
        while self.bytes > self.capacity and self.entries:
            key, (nbytes, dirty) = self.entries.popitem(last=False)
            if key in protect:
                skipped.append((key, (nbytes, dirty)))
                continue
            self.bytes -= nbytes
            evicted.append((key, nbytes, dirty))
        # reinstate protected entries at the LRU end (oldest position)
        for key, value in reversed(skipped):
            self.entries[key] = value
            self.entries.move_to_end(key, last=False)
        return evicted


def _payload_bytes(inp: TaskInput) -> int:
    return inp.elements * bytes_per_element(inp.payload_precision)


def _build_engine(
    platform: Platform,
    nb: int,
    enforce_memory: bool,
    record: Callable[[TraceEvent], None] | None,
    stats: RunStats,
):
    """The per-run machine model the scheduling loop (:func:`_drive`) runs on.

    Returns ``(seed_host, exec_task, sched_state)``:

    * ``seed_host(task)`` registers the task's producer-less inputs as
      version-0 tiles resident in its node's host memory at t=0;
    * ``exec_task(task, ready_t) -> (start, end)`` stages the task's
      inputs through the hierarchy, charges conversions and the kernel,
      materialises the output (plus the STC payload copy), and runs
      evictions — the exact operation sequence of the historical inline
      loop, so panel-first stays regression-pinned bit-identical;
    * ``sched_state`` exposes live GPU/host residency to policies.

    ``record`` is ``None`` when nobody reads the trace: a
    :class:`TraceEvent` is constructed only for a recording run.  Every
    transfer is charged through ``move``, the one writer of link bytes.

    Per-task input payload keys are computed exactly once here and
    reused for the protect set, cache probes, and staging — one of the
    ``--profile-out``-guided hot-loop savings (the profile attributed
    ~an eighth of ``sim.ready_heap_loop`` samples to re-deriving keys
    and protect sets).
    """
    gpu = platform.gpu
    n_ranks = platform.n_ranks
    n_nodes = platform.n_nodes

    compute_free = [0.0] * n_ranks
    h2d_free = [0.0] * n_ranks
    d2h_free = [0.0] * n_ranks
    nic_free = [0.0] * n_nodes

    caches = [_Lru(gpu.memory_bytes if enforce_memory else 0.0) for _ in range(n_ranks)]
    gpu_ready: list[dict[_Key, float]] = [dict() for _ in range(n_ranks)]
    # host tier: per-node availability times plus a byte-bounded LRU; the
    # LRU never evicts while the working set fits (existing in-memory
    # configurations are bit-identical to the unbounded-host model)
    host_caches = [
        _Lru(platform.node.host_memory_bytes if enforce_memory else 0.0)
        for _ in range(n_nodes)
    ]
    host_ready: list[dict[_Key, float]] = [dict() for _ in range(n_nodes)]
    # disk tier: per-node spill store with its own serial engine
    disk_ready: list[dict[_Key, float]] = [dict() for _ in range(n_nodes)]
    disk_free = [0.0] * n_nodes
    #: rank on whose GPU a produced key first materialised
    origin_rank: dict[_Key, int] = {}

    link_bw = gpu.host_link_bandwidth
    link_lat = gpu.host_link_latency
    nic_bw = platform.node.nic_bandwidth
    nic_lat = platform.node.nic_latency
    disk_bw = platform.node.disk_bandwidth
    disk_lat = platform.node.disk_latency
    node_of = [platform.node_of(rank) for rank in range(n_ranks)].__getitem__
    gpus_per_node = platform.node.gpus_per_node
    bpe = {p: bytes_per_element(p) for p in Precision}.__getitem__

    # memoised pure perfmodel lookups (gpu and nb are fixed per run, so
    # these are exact caches — identical floats, just not recomputed):
    # another repro-profile-guided hot-loop saving, needs_conversion and
    # kernel_time together were ~20% of ready-heap-loop samples
    _kt_cache: dict[tuple[str, Precision], float] = {}

    def kernel_time_cached(kind: str, prec: Precision) -> float:
        key = (kind, prec)
        t = _kt_cache.get(key)
        if t is None:
            t = _kt_cache[key] = kernel_time(gpu, kind, nb, prec)
        return t

    _conv_need: dict[tuple[Precision, Precision, str], bool] = {}

    def needs_conversion_cached(src: Precision, dst: Precision, role: str) -> bool:
        key = (src, dst, role)
        v = _conv_need.get(key)
        if v is None:
            v = _conv_need[key] = needs_conversion(src, dst, role)
        return v

    _conv_time: dict[tuple[int, Precision, Precision], float] = {}

    def conversion_time_cached(elements: int, src: Precision, dst: Precision) -> float:
        key = (elements, src, dst)
        t = _conv_time.get(key)
        if t is None:
            t = _conv_time[key] = conversion_time(gpu, elements, src, dst)
        return t

    def move(link: str, rank: int, kind: str, start: float, end: float,
             precision: Precision, nbytes: int) -> None:
        """Charge one transfer: its bytes to ``stats``, its interval to the trace."""
        stats.add_bytes(link, precision, nbytes)
        if record is not None:
            record(TraceEvent(rank, link, kind, start, end, precision, nbytes))

    def _host_evict(node: int, key: _Key, nbytes: int) -> None:
        """Handle one host-tier LRU eviction at ``node``.

        Keys are immutable per (tile, version, precision), so the only
        question is whether another tier still holds a copy:

        * a *replica* node (not the key's origin node) drops it for free
          — a later consumer re-stages from the origin;
        * the origin node drops it for free when the local disk or the
          origin GPU still holds it (a later GPU eviction re-flushes
          through the ordinary d2h write-back);
        * otherwise this was the only copy: it spills through the node's
          disk engine, and every spilled byte lands in the data-motion
          ledger under ``disk_write``.
        """
        stats.n_host_evictions += 1
        avail = host_ready[node].pop(key)
        src_rank = origin_rank.get(key)
        if src_rank is None or node_of(src_rank) != node:
            return
        if key in disk_ready[node] or key in gpu_ready[src_rank]:
            return
        start = max(disk_free[node], avail)
        end = start + disk_lat + nbytes / disk_bw
        disk_free[node] = end
        disk_ready[node][key] = end
        stats.n_spills += 1
        move("disk_write", gpus_per_node * node, "SPILL", start, end, key[3], nbytes)

    def _host_insert(node: int, key: _Key, nbytes: int, t: float, protect: set[_Key]) -> None:
        """Register ``key`` in ``node``'s host memory, evicting LRU overflow.

        An existing entry keeps its earlier availability time (keys are
        immutable) and is only refreshed in the LRU order.
        """
        cache = host_caches[node]
        if key in host_ready[node]:
            cache.touch(key)
            return
        host_ready[node][key] = t
        cache.insert(key, nbytes, dirty=False)
        for ev_key, ev_bytes, _ev_dirty in cache.evict_until_fits(protect):
            _host_evict(node, ev_key, ev_bytes)

    def _writeback(
        rank: int, key: _Key, nbytes: int, dirty: bool, now: float, protect: set[_Key]
    ) -> None:
        """Account one GPU eviction; flush to the host only when required.

        Every eviction counts toward ``stats.n_evictions`` (which the
        driving loop publishes as ``sim.evictions``).  The d2h transfer
        is charged only when no lower tier (host or local disk) holds a
        copy or the entry is dirty; a clean entry the host (or disk)
        already holds is dropped for free.
        """
        node = node_of(rank)
        stats.n_evictions += 1
        if not dirty and (key in host_ready[node] or key in disk_ready[node]):
            return
        start = max(d2h_free[rank], gpu_ready[rank].get(key, now))
        end = start + link_lat + nbytes / link_bw
        d2h_free[rank] = end
        move("d2h", rank, "EVICT", start, end, key[3], nbytes)
        _host_insert(node, key, nbytes, end, protect)

    def _stage_to_host(dest_node: int, key: _Key, nbytes: int, protect: set[_Key]) -> float:
        """Time at which ``key`` is available in ``dest_node``'s host memory."""
        t = host_ready[dest_node].get(key)
        if t is not None:
            host_caches[dest_node].touch(key)
            return t
        src_rank = origin_rank.get(key)
        if src_rank is None:
            raise KeyError(f"payload {key} has no origin (missing producer or host seed)")
        src_node = node_of(src_rank)
        # recover at the origin (skipped if the origin's host already has it):
        # d2h from the origin GPU, or a disk read when the host tier spilled
        if key not in host_ready[src_node]:
            data_t = gpu_ready[src_rank].get(key)
            if data_t is not None:
                start = max(d2h_free[src_rank], data_t)
                end = start + link_lat + nbytes / link_bw
                d2h_free[src_rank] = end
                move("d2h", src_rank, "STAGE", start, end, key[3], nbytes)
            else:
                disk_t = disk_ready[src_node].get(key)
                if disk_t is None:
                    # an earlier _writeback found every older host entry protected
                    # by the task then running and shed the payload it wrote back
                    working_set = sum(nb * nb * bpe(k[3]) for k in protect)
                    raise ValueError(
                        f"payload {key} is in no tier of its origin node {src_node}: the "
                        f"node's host memory ({host_caches[src_node].capacity:.0f} bytes) "
                        f"cannot hold a task's working set (here {len(protect)} payloads, "
                        f"{working_set} bytes) beside a payload its GPU writes back"
                    )
                start = max(disk_free[src_node], disk_t)
                end = start + disk_lat + nbytes / disk_bw
                disk_free[src_node] = end
                move("disk_read", gpus_per_node * src_node, "FETCH", start, end, key[3], nbytes)
            _host_insert(src_node, key, nbytes, end, protect)
            if key not in host_ready[src_node]:  # pragma: no cover - defensive
                raise RuntimeError(f"host tier at node {src_node} cannot hold payload {key}")
        if src_node == dest_node:
            return host_ready[src_node][key]
        # inter-node message (sender NIC serialisation, alpha-beta model)
        start = max(nic_free[src_node], host_ready[src_node][key])
        end = start + nic_lat + nbytes / nic_bw
        nic_free[src_node] = end
        move("nic", gpus_per_node * src_node, "SEND", start, end, key[3], nbytes)
        _host_insert(dest_node, key, nbytes, end, protect)
        return end

    def _acquire(
        rank: int, key: _Key, nbytes: int, payload_prec: Precision, now: float, protect: set[_Key]
    ) -> float:
        """Make one payload available on ``rank``'s GPU; return ready time."""
        cache = caches[rank]
        if key in cache:
            cache.touch(key)
            return gpu_ready[rank][key]
        node = node_of(rank)
        t_host = _stage_to_host(node, key, nbytes, protect)
        start = max(h2d_free[rank], t_host)
        end = start + link_lat + nbytes / link_bw
        h2d_free[rank] = end
        gpu_ready[rank][key] = end
        cache.insert(key, nbytes, dirty=False)
        for ev_key, ev_bytes, ev_dirty in cache.evict_until_fits(protect):
            _writeback(rank, ev_key, ev_bytes, ev_dirty, now, protect)
            gpu_ready[rank].pop(ev_key, None)
        move("h2d", rank, "LOAD", start, end, payload_prec, nbytes)
        return end

    _no_protect: set[_Key] = set()

    def seed_host(task: Task) -> None:
        """Seed the task's version-0 inputs at its owner's node.

        The generated matrix starts on the node's disk tier (free at
        t=0) with a warm host copy; when the host tier cannot hold the
        whole matrix the LRU sheds the overflow immediately — for free,
        since the disk already has those tiles — and first touch pays
        the disk read instead.
        """
        rank = task.rank
        if not 0 <= rank < n_ranks:  # the node_of table would wrap or overrun
            raise ValueError(f"rank {rank} outside platform of {n_ranks} ranks")
        for inp in task.inputs:
            if inp.producer is None:
                tile = inp.tile
                key: _Key = (tile.i, tile.j, tile.version, inp.payload_precision)
                node = node_of(rank)
                if key not in host_ready[node]:
                    disk_ready[node].setdefault(key, 0.0)
                    _host_insert(node, key, _payload_bytes(inp), 0.0, _no_protect)
                origin_rank.setdefault(key, rank)

    def exec_task(task: Task, ready_t: float) -> tuple[float, float]:
        """Run one ready task; returns its (start, end) compute interval."""
        rank = task.rank
        inputs = task.inputs
        # one pass over the inputs derives every key/byte pair; the
        # protect set and all staging probes reuse them
        staged = []
        protect: set[_Key] = set()
        for inp in inputs:
            tile = inp.tile
            prec = inp.payload_precision
            key = (tile.i, tile.j, tile.version, prec)
            staged.append((inp, key, inp.elements * bpe(prec), prec))
            protect.add(key)
        out = task.output
        out_key: _Key = (out.i, out.j, out.version, task.output_precision)
        protect.add(out_key)

        task_prec = task.precision
        arrival = ready_t
        # (site, src, dst, seconds) per conversion pass charged to this task
        conversions: list[tuple[str, Precision, Precision, float]] = []
        for inp, key, nbytes, prec in staged:
            t = _acquire(rank, key, nbytes, prec, ready_t, protect)
            if t > arrival:
                arrival = t
            # receiver-side conversion (TTC, or residual re-encode under STC)
            if needs_conversion_cached(prec, task_prec, inp.role):
                conversions.append(
                    ("ttc", prec, task_prec, conversion_time_cached(inp.elements, prec, task_prec))
                )
        if task.sender_conversion is not None:
            src, dst = task.sender_conversion
            conversions.append(("stc", src, dst, conversion_time_cached(nb * nb, src, dst)))
        conv_seconds = sum(c[3] for c in conversions)

        start = max(compute_free[rank], arrival)
        exec_t = kernel_time_cached(task.kind, task_prec)
        end = start + exec_t + conv_seconds
        compute_free[rank] = end

        conv_t = start
        for site, src, dst, seconds in conversions:
            if record is not None:
                record(
                    TraceEvent(
                        rank,
                        "compute",
                        "CONVERT",
                        conv_t,
                        conv_t + seconds,
                        task_prec,
                        site=site,
                        src_precision=src,
                        dst_precision=dst,
                    )
                )
            conv_t += seconds
            stats.add_conversion(site, seconds)
        if record is not None:
            record(
                TraceEvent(
                    rank, "compute", task.kind, start + conv_seconds, end, task_prec, 0, task.flops
                )
            )
        stats.add_flops(task_prec, task.flops)
        stats.n_tasks += 1

        # output materialises on this GPU
        out_bytes = nb * nb * bpe(task.output_precision)
        gpu_ready[rank][out_key] = end
        caches[rank].insert(out_key, out_bytes, dirty=True)
        origin_rank[out_key] = rank
        # STC payload copy (converted once here, broadcast in low precision)
        if task.sender_conversion is not None:
            _src, dst = task.sender_conversion
            pay_key: _Key = (out.i, out.j, out.version, dst)
            pay_bytes = nb * nb * bpe(dst)
            gpu_ready[rank][pay_key] = end
            caches[rank].insert(pay_key, pay_bytes, dirty=False)
            origin_rank[pay_key] = rank
        for ev_key, ev_bytes, ev_dirty in caches[rank].evict_until_fits(protect):
            _writeback(rank, ev_key, ev_bytes, ev_dirty, end, protect)
            gpu_ready[rank].pop(ev_key, None)
        return start, end

    sched_state = SchedState(
        resident=lambda rank, key: key in caches[rank],
        host_resident=lambda node, key: key in host_ready[node],
    )
    return seed_host, exec_task, sched_state


#: the ``RunStats.to_dict()`` counters a ``sim.complete`` event carries
_COMPLETE_KEYS = (
    "n_tasks", "makespan_seconds", "tflops", "h2d_bytes", "nic_bytes",
    "n_conversions", "n_evictions", "n_host_evictions", "n_spills",
)


def _finish(
    policy_name: str,
    trace: Trace,
    task_end: list[float],
    task_start: list[float],
    peak_live: int,
    commit_order: list[int],
) -> SimReport:
    """Emit ``sim.complete`` and assemble the :class:`SimReport`."""
    stats = trace.stats
    makespan = max(task_end, default=0.0)
    stats.makespan = makespan
    doc = stats.to_dict()
    emit_event(
        "sim.complete",
        {key: doc[key] for key in _COMPLETE_KEYS} | {"policy": policy_name},
    )
    run_finished(stats.n_tasks)
    return SimReport(
        makespan=makespan,
        stats=stats,
        trace=trace,
        task_end=task_end,
        task_start=task_start,
        policy=policy_name,
        peak_live_tasks=peak_live,
        commit_order=commit_order,
    )


def _drive(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    *,
    phase: str,
    policy_name: str,
    enforce_memory: bool,
    record_events: bool,
    source: Iterable[Task] | None = None,
    lookahead: float = float("inf"),
    key_of: Callable | None = None,
    order: "Iterable[int] | None" = None,
) -> SimReport:
    """The one scheduling loop: a task source crossed with an order source.

    ``source=None`` takes ``graph`` as finalized: its whole task list is
    one emission and nothing is retired.  Otherwise ``source`` is a lazy
    iterator appended into the empty frontier ``graph`` until
    ``lookahead`` tasks are live, each retired once it has executed.

    ``key_of`` (a policy's ``key``) orders a ready heap; ``order`` is
    instead a recorded tid sequence, checked against ``in_count`` — a
    task's number of unexecuted predecessors, ``-1`` once it has run
    itself — so anything but ``0`` is an invalid pick.
    """
    registry = get_registry()
    trace = Trace()
    stats = trace.stats
    seed_host, exec_task, sched_state = _build_engine(
        platform, nb, enforce_memory, trace.record if record_events else None, stats
    )
    evictions_metric = registry.counter("sim.evictions", "LRU evictions (all causes)")
    conversions_metric = registry.counter("sim.conversions", "datatype conversion passes")
    evictions_seen = conversions_seen = 0

    def publish_counts() -> None:
        """Move the two live counters up to the run's ``RunStats`` totals."""
        nonlocal evictions_seen, conversions_seen
        if stats.n_evictions > evictions_seen:
            evictions_metric.inc(stats.n_evictions - evictions_seen)
            evictions_seen = stats.n_evictions
        if stats.n_conversions > conversions_seen:
            conversions_metric.inc(stats.n_conversions - conversions_seen)
            conversions_seen = stats.n_conversions

    streamed = source is not None
    emit = iter(source if streamed else graph.tasks)
    # the lists below grow (add) and shrink (retire) in place under a
    # streamed source, so these references stay current
    preds, succs = graph.adjacency()
    tasks = graph.tasks
    in_count: list[int] = []
    task_end: list[float] = []
    task_start: list[float] = []
    task_ready: list[float] = []
    heap: list[tuple[float, float, int]] = []
    heappop = heapq.heappop
    heappush = heapq.heappush
    picks = None if order is None else iter(order)
    commit_order: list[int] = []
    commit = commit_order.append

    live = 0
    peak_live = 0
    exhausted = False
    done = 0
    # a lazy stream does not know its length; simulate_cholesky
    # pre-announces cholesky_task_count(nt) via announce_total
    beat = run_started(None if streamed else len(graph), phase)  # None unless a live plane is up
    with hot_region("sim.ready_heap_loop"):
        while True:
            if not exhausted and (live < lookahead or (picks is None and not heap)):
                # One window fill — or, when the frontier is still blocked
                # inside a full window, one more task (repeated until a task
                # is ready or the source runs dry).  The whole fill is
                # host-seeded before any of its ready tasks is keyed, so a
                # residency-aware policy scores roots against the same host
                # state whether they arrive in one emission or through a
                # stream whose window covers them.
                limit = max(lookahead, live + 1)
                first = len(in_count)
                while live < limit:
                    task = next(emit, None)
                    if task is None:
                        exhausted = True
                        break
                    tid = graph.add(task) if streamed else task.tid
                    seed_host(task)
                    pending = 0
                    ready_t = 0.0
                    for p in preds[tid]:
                        if in_count[p] < 0:
                            if task_end[p] > ready_t:
                                ready_t = task_end[p]
                        else:
                            pending += 1
                    in_count.append(pending)
                    task_ready.append(ready_t)
                    task_start.append(0.0)
                    task_end.append(0.0)
                    live += 1
                if live > peak_live:
                    peak_live = live
                # Heap comparator is the explicit triple (*policy.key, tid):
                # the policy owns the first two fields, task id pins the order
                # of equal-key tasks so every policy is fully deterministic.
                # Only tasks whose predecessors have all executed enter the
                # heap, so any pop order is a valid schedule; the recorded
                # ready time still gates the task's start via its input
                # arrival times.
                if key_of is not None:
                    for tid in range(first, len(in_count)):
                        if in_count[tid] == 0:
                            heappush(heap, (*key_of(tasks[tid], task_ready[tid], sched_state), tid))
                continue
            if picks is None:
                if not heap:
                    break
                tid = heappop(heap)[-1]
            else:
                tid = next(picks, None)
                if tid is None:
                    break
                tid = int(tid)
                if not 0 <= tid < len(in_count) or in_count[tid] < 0:
                    raise ValueError(
                        f"replay order invalid at position {done}: task {tid} "
                        f"{'already executed' if 0 <= tid < len(in_count) else 'out of range'}"
                    )
                if in_count[tid]:
                    blocker = next(p for p in preds[tid] if in_count[p] >= 0)
                    raise ValueError(
                        f"replay order violates precedence: task {tid} scheduled "
                        f"before its predecessor {blocker}"
                    )
            commit(tid)
            start, end = exec_task(tasks[tid], task_ready[tid])
            task_start[tid] = start
            task_end[tid] = end
            in_count[tid] = -1
            for succ in succs[tid]:
                left = in_count[succ] - 1
                in_count[succ] = left
                if end > task_ready[succ]:
                    task_ready[succ] = end
                if left == 0 and key_of is not None:
                    heappush(heap, (*key_of(tasks[succ], task_ready[succ], sched_state), succ))
            if streamed:
                graph.retire(tid)
            live -= 1
            done += 1
            if not done % BEAT_STRIDE:
                publish_counts()
                if beat is not None:
                    beat(done, live)

    if live:
        if picks is not None:
            raise ValueError(f"replay order incomplete: {done}/{done + live} tasks executed")
        raise RuntimeError(
            f"simulation deadlock: {done} tasks executed, {live} live "
            "(emission order is not topological?)"
        )
    publish_counts()
    return _finish(policy_name, trace, task_end, task_start, peak_live, commit_order)


@traced("sim.run")
def simulate(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    *,
    enforce_memory: bool = True,
    record_events: bool = True,
    policy: str | SchedulePolicy | None = None,
) -> SimReport:
    """Simulate ``graph`` on ``platform`` and return timing + counters.

    ``nb`` is the tile edge used to price kernels, the STC pass and the
    output bytes: a ragged edge tile is priced there as a full ``nb``²
    tile, while transfers and TTC passes use each input's real element
    count.  With ``nb ∤ n`` kernel seconds are therefore over-priced by
    up to ``1 − ((NT−1)/NT)³ ≤ 3/NT`` (the flops the ragged last tile
    row and column shed); the makespan moves less (2–3 % at NT=16).

    ``policy`` picks the :class:`~repro.runtime.policies.SchedulePolicy`
    that orders the ready heap (name or instance; default
    ``panel-first``, bit-identical to the historical scheduler).
    Policies reorder ready tasks only, so they change timing and data
    motion but never which payloads a task consumes.

    Telemetry: runs inside a ``sim.run`` span; the eviction/conversion
    counters tick every ``BEAT_STRIDE`` executed tasks, and a
    ``sim.complete`` event carries the run's totals.
    """
    sched = resolve_policy(policy)
    sched.prepare(graph, platform, nb)
    return _drive(
        graph, platform, nb, key_of=sched.key, phase="sim.materialized", policy_name=sched.name,
        enforce_memory=enforce_memory, record_events=record_events,
    )


@traced("sim.run")
def simulate_stream(
    source: Iterable[Task],
    platform: Platform,
    nb: int,
    *,
    lookahead: int = 100_000,
    enforce_memory: bool = True,
    record_events: bool = True,
    policy: str | SchedulePolicy | None = None,
) -> SimReport:
    """Simulate a lazily-emitted task stream without materialising the DAG.

    ``source`` yields :class:`Task` objects in a dependency-safe
    (topological) emission order with dense tids — what
    :func:`repro.core.dag_cholesky.stream_cholesky_tasks` produces.
    Tasks are pulled into a :class:`TaskGraph` frontier until
    ``lookahead`` of them are live (emitted but unexecuted), scheduled
    exactly like :func:`simulate`, and retired as soon as they execute,
    so peak memory tracks the window rather than the task count.  When
    the heap drains while the window is still blocked, emission widens
    past ``lookahead`` until a ready task appears (the window is a soft
    target, never a correctness constraint).

    Every pop order is a valid schedule; it matches the materialised
    path exactly when each task is emitted before it becomes ready,
    which for the k-major Cholesky emission holds once ``lookahead``
    spans about two trailing-update sweeps (≈ ``nt²`` tasks —
    :func:`repro.core.solver.simulate_cholesky` picks this
    automatically).  Smaller windows stay correct but may schedule
    slightly differently.

    Policies that precompute over the whole graph
    (``requires_full_graph``: critical-path, comm-aware-eft) are
    rejected — they would need the very materialisation this path
    avoids.

    .. caveat:: the O(window) live-memory bound covers *Task* objects
       only.  With ``record_events=True`` (the default) the recording
       :class:`Trace` accumulates O(n_tasks) events — several per task —
       which silently dominates memory at NT ≳ 192 (~1.2M tasks).  Pass
       ``record_events=False`` for million-task runs; ``repro simulate
       --stream`` warns when an export flag turns event recording on.  (The
       per-task ``task_end``/``task_start``/``commit_order`` arrays are
       O(n_tasks) too, but at a few machine words per task they are two
       orders of magnitude lighter than recorded events.)
    """
    if lookahead < 1:
        raise ValueError("lookahead must be positive")
    sched = resolve_policy(policy)
    if getattr(sched, "requires_full_graph", False):
        raise ValueError(
            f"policy {sched.name!r} precomputes over the full graph and cannot "
            "be used with simulate_stream; use simulate() or a frontier-local "
            "policy (panel-first, fifo)"
        )
    frontier = TaskGraph()
    sched.prepare(frontier, platform, nb)
    return _drive(
        frontier, platform, nb, source=source, lookahead=lookahead, key_of=sched.key,
        phase="sim.stream", policy_name=sched.name,
        enforce_memory=enforce_memory, record_events=record_events,
    )


@traced("sim.run")
def simulate_replay(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    order: "Iterable[int]",
    *,
    enforce_memory: bool = True,
    record_events: bool = True,
    source_policy: str = "panel-first",
) -> SimReport:
    """Execute a previously committed task order — no heap, no policy keys.

    ``order`` is the ``commit_order`` of an earlier :func:`simulate` /
    :func:`simulate_stream` run over the *same* graph and platform
    (usually via :class:`repro.runtime.schedule.StaticSchedule`).  The
    engine state (caches, link timelines, conversions) evolves purely
    from the execution sequence, so replaying the committed order
    reproduces the original run bit-identically — same makespan, same
    stats, same trace content hash — while skipping every ready-heap
    push/pop and policy-key evaluation.

    The order is validated as it executes: every task id must appear
    exactly once and only after all its predecessors, else
    ``ValueError`` — a schedule exported from a different graph shape
    fails fast instead of producing a silently wrong account.
    """
    return _drive(
        graph, platform, nb, order=order, phase="sim.replay",
        policy_name=f"replay:{source_policy}",
        enforce_memory=enforce_memory, record_events=record_events,
    )
