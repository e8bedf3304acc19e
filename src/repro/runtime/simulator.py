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

Payloads live in byte-bounded LRUs per GPU and per node's host memory,
over a per-node disk, each keyed by one int: its
:func:`~repro.runtime.task.payload_key`, minted once per ``TaskInput``
(``inp.key``) and once per executed task for its output and STC copy.
Every tier, ready map, link charge and residency probe reads that int; a
key becomes ``(i, j, version, PRECISION)`` again only in an error
message.  Each tier sheds its own overflow in one loop that decides a
key's fate beside the pop that evicts it: the GPU (``_evict_gpu``)
writes a dirty or host-less entry back through the d2h engine and drops
a clean one the host or disk holds; the host (``_host_insert``) spills an origin's only copy through
the disk engine and drops the rest.  A 0-byte tier holds only the running
task's working set; a ``math.inf`` one never evicts.  This is what makes
larger-than-memory matrices stream, and what amplifies the byte savings
of STC payloads.

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
  a frontier graph under a bounded emission window that refills in
  sweeps, each task retired after it has executed, so peak memory
  follows the window instead of the DAG;
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
* :func:`simulate_replay` — finalized graph × recorded order: an
  earlier run's ``commit_order``, replayed in the same process.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..obs import emit_event, get_registry, traced
from ..perfmodel.energy import joules
from ..perfmodel.kernels import conversion_time, kernel_time
from ..precision.formats import Precision, bytes_per_element
from .platform import Platform
from .policies import SchedState, SchedulePolicy, resolve_policy
from .task import _PRECISION_OF_CODE, Task, TaskGraph, TaskInput, key_payload, payload_key
from .tracing import LINKS, RunStats, Trace, TraceEvent
from ..core.conversion import needs_conversion

__all__ = ["SimReport", "simulate", "simulate_stream", "simulate_replay"]

#: a payload key: ``payload_key(tile, payload precision)``, whose
#: precision is ``_PRECISION_OF_CODE[key & 7]``
_Key = int

#: each link's counter base: its bytes per precision are counted under
#: ``base | key & 7`` (``LINKS[base >> 3]`` names it)
_H2D, _D2H, _NIC, _DISK_READ, _DISK_WRITE = (i << 3 for i in range(len(LINKS)))

#: tasks a bounded emission window drains before it is topped back up to
#: its ``lookahead`` (at most an eighth of the window; under 8, per task)
REFILL_SWEEP = 512

#: executed tasks between two publications of the ``sim.evictions`` /
#: ``sim.conversions`` registry counters, so a mid-run scrape sees them rise
PUBLISH_STRIDE = 256


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
    #: engines — the input to :func:`simulate_replay`
    commit_order: list[int] = field(default_factory=list)
    #: busy compute seconds summed over ranks per task precision: each
    #: task's ``end − start``, its conversions included
    compute_seconds: dict[Precision, float] = field(default_factory=dict)
    #: busy h2d + d2h copy-engine seconds summed over ranks
    copy_seconds: float = 0.0
    #: energy of every GPU over the makespan
    #: (:func:`repro.perfmodel.energy.joules` of the two counters above)
    joules: float = 0.0

    @property
    def gflops(self) -> float:
        return self.stats.gflops

    @property
    def gflops_per_watt(self) -> float:
        """Total Gflop over total joules (Fig. 10)."""
        return self.stats.total_flops / 1e9 / self.joules if self.joules > 0.0 else 0.0


class _Lru:
    """Byte-bounded LRU state of one GPU or host tier: no behaviour.

    ``entries`` maps payload key -> bytes, oldest first; ``dirty`` holds
    the keys written on this tier since they arrived (sticky until
    eviction); ``bytes`` is their sum.  The tier sheds its own overflow
    inside :func:`_build_engine` (``_evict_gpu``, ``_host_insert``),
    deciding write-back or spill beside the ``popitem`` that evicts.
    """

    __slots__ = ("capacity", "entries", "dirty", "bytes")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[_Key, int]" = OrderedDict()
        self.dirty: set[_Key] = set()
        self.bytes = 0


def _describe(key: _Key) -> str:
    """A payload key as ``(i, j, version, PRECISION)``, for error messages."""
    return "(%d, %d, %d, %s)" % key_payload(key)


def _working_set(inputs: list[TaskInput], out_key: _Key) -> set[_Key]:
    """The payload keys a task reads plus the one it writes."""
    protect = {out_key}
    for inp in inputs:
        protect.add(inp.key)
    return protect


def _build_engine(
    platform: Platform,
    nb: int,
    record: Callable[[TraceEvent], None] | None,
    stats: RunStats,
):
    """The per-run machine model the scheduling loop (:func:`_drive`) runs on.

    Returns ``(seed_host, exec_task, sched_state, finish)``:

    * ``seed_host(rank, inp)`` registers one producer-less input of a
      task on ``rank`` as a version-0 tile resident in its node's host
      memory at t=0;
    * ``exec_task(task, ready_t) -> (start, end)`` stages the task's
      inputs through the hierarchy, charges conversions and the kernel,
      materialises the output (plus the STC payload copy), and runs
      evictions — the exact operation sequence of the historical inline
      loop, so panel-first stays regression-pinned bit-identical;
    * ``sched_state`` exposes live GPU/host residency to policies;
    * ``finish(makespan)`` folds the link counters into ``stats`` and
      returns the run's busy-second counters and their joules as the
      :class:`SimReport` fields of those names.

    ``record`` is ``None`` when nobody reads the trace: a
    :class:`TraceEvent` is constructed only for a recording run.  Each of
    the six transfer sites adds its bytes to ``link_bytes``, one int-indexed
    counter per link and precision, which ``finish`` folds into
    ``stats.bytes_moved`` (a pair that moved no byte gets no entry).

    ``exec_task`` reads each input's payload key, serves a GPU-cache
    hit inline, builds the protected working set only on a miss or before
    shedding, and sheds a tier only once it is over its limit.
    """
    gpu = platform.gpu
    n_ranks = platform.n_ranks
    n_nodes = platform.n_nodes

    compute_free = [0.0] * n_ranks
    h2d_free = [0.0] * n_ranks
    d2h_free = [0.0] * n_ranks
    nic_free = [0.0] * n_nodes

    gpu_capacity, host_capacity = gpu.memory_bytes, platform.node.host_memory_bytes
    for tier, capacity in (("GPU", gpu_capacity), ("host", host_capacity)):
        if capacity < 0:
            raise ValueError(f"{tier} memory capacity must be non-negative, got {capacity} bytes")
    caches = [_Lru(gpu_capacity) for _ in range(n_ranks)]
    #: when each payload on a GPU is ready: the same key set as its LRU
    gpu_ready: list[dict[_Key, float]] = [dict() for _ in range(n_ranks)]
    # host tier: per-node availability times plus a byte-bounded LRU; the
    # LRU never evicts while the working set fits (existing in-memory
    # configurations are bit-identical to the unbounded-host model)
    host_caches = [_Lru(host_capacity) for _ in range(n_nodes)]
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
    node_of = [platform.node_of(rank) for rank in range(n_ranks)]
    gpus_per_node = platform.node.gpus_per_node
    bpe = {p: bytes_per_element(p) for p in Precision}.__getitem__
    precision_of = _PRECISION_OF_CODE
    #: bytes of one full nb² tile, per precision
    tile_bytes = {p: nb * nb * bytes_per_element(p) for p in Precision}

    flops_by_precision = stats.flops_by_precision
    #: receiver-side (TTC) and sender-side (STC) passes, their seconds per
    #: site and in all, each summed in charge order; ``finish`` writes them
    n_ttc = n_stc = 0
    ttc_seconds = stc_seconds = conversion_seconds = 0.0
    compute_seconds = dict.fromkeys(Precision, 0.0)
    #: added at the three h2d / d2h sites
    copy_seconds = 0.0

    # Exact memos of pure perfmodel lookups: gpu and nb are fixed per run,
    # so each entry is the very float the perfmodel returns.  Every task
    # prices its kernel and every input its receiver-side check, over a
    # handful of distinct arguments.
    kernel_seconds: dict[tuple[str, Precision], float] = {}
    #: (payload, task precision, role, elements) -> the ``("ttc", src,
    #: dst, seconds)`` pass that input costs its consumer, ``()`` if none
    ttc_pass: dict[tuple[Precision, Precision, str, int], tuple] = {}
    #: a task's ``sender_conversion`` -> its ``("stc", src, dst, seconds)`` pass
    stc_pass: dict[tuple[Precision, Precision], tuple] = {}

    def _ttc(payload: Precision, task_prec: Precision, role: str, elements: int) -> tuple:
        """Receiver-side pass (TTC, or a residual re-encode under STC), if any."""
        if not needs_conversion(payload, task_prec, role):
            return ()
        return ("ttc", payload, task_prec, conversion_time(gpu, elements, payload, task_prec))

    #: bytes moved per ``link | code``: a link's counter base (``_H2D`` …
    #: ``_DISK_WRITE``) and the payload key's precision code; each transfer
    #: adds its bytes here, and a recording run records its interval
    link_bytes = [0] * (len(LINKS) << 3)

    def _host_insert(node: int, key: _Key, nbytes: int, t: float, protect: set[_Key]) -> None:
        """Register ``key`` in ``node``'s host memory, then shed the overflow.

        An existing entry keeps its availability time (keys are immutable)
        and only moves in the LRU order.  An evicted key asks only whether
        another tier still holds a copy: a *replica* node (not the key's
        origin) drops it for free, and so does the origin node while its
        disk or the origin GPU holds it; otherwise it was the only copy
        and spills through the node's disk engine (``disk_write``).
        Protected keys are skipped and reinstated, oldest first.
        """
        cache = host_caches[node]
        entries = cache.entries
        ready = host_ready[node]
        if key in ready:
            entries.move_to_end(key)
            return
        ready[key] = t
        entries[key] = nbytes
        used = cache.bytes + nbytes
        capacity = cache.capacity
        if used <= capacity:
            cache.bytes = used
            return
        skipped = None
        evicted = 0
        while used > capacity and entries:
            ev_key, ev_bytes = entries.popitem(last=False)
            if ev_key in protect:
                if skipped is None:
                    skipped = []
                skipped.append((ev_key, ev_bytes))
                continue
            used -= ev_bytes
            evicted += 1
            avail = ready.pop(ev_key)
            src_rank = origin_rank.get(ev_key)
            if src_rank is None or node_of[src_rank] != node:
                continue
            disk = disk_ready[node]
            if ev_key in disk or ev_key in gpu_ready[src_rank]:
                continue
            free = disk_free[node]
            start = free if free >= avail else avail
            end = start + disk_lat + ev_bytes / disk_bw
            disk_free[node] = end
            disk[ev_key] = end
            stats.n_spills += 1
            code = ev_key & 7
            link_bytes[_DISK_WRITE | code] += ev_bytes
            if record is not None:
                record(TraceEvent(gpus_per_node * node, "disk_write", "SPILL", start, end,
                                  precision_of[code], ev_bytes))
        cache.bytes = used
        stats.n_host_evictions += evicted
        if skipped is not None:
            for ev_key, ev_bytes in reversed(skipped):
                entries[ev_key] = ev_bytes
                entries.move_to_end(ev_key, last=False)

    def _evict_gpu(rank: int, protect: set[_Key]) -> None:
        """Shed ``rank``'s LRU overflow, counting every eviction.

        A dirty payload is written back through the d2h engine, a clean
        one the node's host or disk holds is dropped for free, any other
        goes to the host too.  The GPU copy is forgotten only after the
        host insert: a key the host sheds at once must still see it.
        Protected keys are skipped and reinstated, oldest first.
        """
        nonlocal copy_seconds
        cache = caches[rank]
        entries = cache.entries
        dirty = cache.dirty
        ready = gpu_ready[rank]
        node = node_of[rank]
        used, capacity = cache.bytes, cache.capacity
        skipped = None
        evicted = 0
        while used > capacity and entries:
            key, nbytes = entries.popitem(last=False)
            if key in protect:
                if skipped is None:
                    skipped = []
                skipped.append((key, nbytes))
                continue
            used -= nbytes
            evicted += 1
            if key in dirty:
                dirty.remove(key)
            elif key in host_ready[node] or key in disk_ready[node]:
                del ready[key]
                continue
            free, t = d2h_free[rank], ready[key]
            start = free if free >= t else t
            end = start + link_lat + nbytes / link_bw
            d2h_free[rank] = end
            copy_seconds += end - start
            code = key & 7
            link_bytes[_D2H | code] += nbytes
            if record is not None:
                record(TraceEvent(rank, "d2h", "EVICT", start, end, precision_of[code], nbytes))
            _host_insert(node, key, nbytes, end, protect)
            del ready[key]
        cache.bytes = used
        stats.n_evictions += evicted
        if skipped is not None:
            for key, nbytes in reversed(skipped):
                entries[key] = nbytes
                entries.move_to_end(key, last=False)

    def _load(rank: int, key: _Key, nbytes: int, protect: set[_Key]) -> float:
        """Stage one payload missing from ``rank``'s GPU; return its ready time.

        Via the rank's host: recovered at the origin node when absent (d2h
        from the origin GPU, else a disk read) and sent on by NIC from
        another node.  ``key`` is protected: no host insert sheds it.
        """
        nonlocal copy_seconds
        code = key & 7
        node = node_of[rank]
        t_host = host_ready[node].get(key)
        if t_host is not None:
            host_caches[node].entries.move_to_end(key)
        else:
            src_rank = origin_rank.get(key)
            if src_rank is None:
                raise KeyError(f"payload {_describe(key)} has no origin "
                               "(missing producer or host seed)")
            src_node = node_of[src_rank]
            src_host = host_ready[src_node]
            if key not in src_host:
                data_t = gpu_ready[src_rank].get(key)
                if data_t is not None:
                    free = d2h_free[src_rank]
                    start = free if free >= data_t else data_t
                    end = start + link_lat + nbytes / link_bw
                    d2h_free[src_rank] = end
                    copy_seconds += end - start
                    link_bytes[_D2H | code] += nbytes
                    if record is not None:
                        record(TraceEvent(src_rank, "d2h", "STAGE", start, end,
                                          precision_of[code], nbytes))
                else:
                    disk_t = disk_ready[src_node].get(key)
                    if disk_t is None:
                        # an earlier GPU eviction found every older host entry
                        # protected and the host shed the payload written back
                        working_set = sum(nb * nb * bpe(precision_of[k & 7]) for k in protect)
                        raise ValueError(
                            f"payload {_describe(key)} is in no tier of its origin node {src_node}: the "
                            f"node's host memory ({host_caches[src_node].capacity:.0f} bytes) "
                            f"cannot hold a task's working set (here {len(protect)} payloads, "
                            f"{working_set} bytes) beside a payload its GPU writes back"
                        )
                    free = disk_free[src_node]
                    start = free if free >= disk_t else disk_t
                    end = start + disk_lat + nbytes / disk_bw
                    disk_free[src_node] = end
                    link_bytes[_DISK_READ | code] += nbytes
                    if record is not None:
                        record(TraceEvent(gpus_per_node * src_node, "disk_read", "FETCH", start,
                                          end, precision_of[code], nbytes))
                _host_insert(src_node, key, nbytes, end, protect)
            t_host = src_host[key]
            if src_node != node:
                # inter-node message (sender NIC serialisation, alpha-beta model)
                free = nic_free[src_node]
                start = free if free >= t_host else t_host
                t_host = start + nic_lat + nbytes / nic_bw
                nic_free[src_node] = t_host
                link_bytes[_NIC | code] += nbytes
                if record is not None:
                    record(TraceEvent(gpus_per_node * src_node, "nic", "SEND", start, t_host,
                                      precision_of[code], nbytes))
                _host_insert(node, key, nbytes, t_host, protect)
        free = h2d_free[rank]
        start = free if free >= t_host else t_host
        end = start + link_lat + nbytes / link_bw
        h2d_free[rank] = end
        copy_seconds += end - start
        gpu_ready[rank][key] = end
        cache = caches[rank]
        cache.entries[key] = nbytes
        cache.bytes += nbytes
        if cache.bytes > cache.capacity:
            _evict_gpu(rank, protect)
        link_bytes[_H2D | code] += nbytes
        if record is not None:
            record(TraceEvent(rank, "h2d", "LOAD", start, end, precision_of[code], nbytes))
        return end

    _no_protect: set[_Key] = set()

    def seed_host(rank: int, inp: TaskInput) -> None:
        """Seed one producer-less input of a task on ``rank`` at its node.

        The input is a version-0 tile: the generated matrix starts on the
        node's disk tier (free at t=0) with a warm host copy; when the
        host tier cannot hold the whole matrix the LRU sheds the overflow
        immediately — for free, since the disk already has those tiles —
        and first touch pays the disk read instead.
        """
        key = inp.key
        node = node_of[rank]
        if key not in host_ready[node]:
            disk_ready[node].setdefault(key, 0.0)
            _host_insert(node, key, inp.elements * bpe(inp.payload_precision), 0.0, _no_protect)
        origin_rank.setdefault(key, rank)

    def exec_task(task: Task, ready_t: float) -> tuple[float, float]:
        """Run one ready task; returns its (start, end) compute interval."""
        nonlocal n_ttc, n_stc, ttc_seconds, stc_seconds, conversion_seconds
        rank = task.rank
        inputs = task.inputs
        task_prec = task.precision
        out = task.output
        out_prec = task.output_precision
        out_key = payload_key(out, out_prec)
        #: the task's working set, which no eviction may shed: built on
        #: the first miss (or before shedding), so an all-hit task never does
        protect = None
        cache = caches[rank]
        entries = cache.entries
        ready = gpu_ready[rank]

        arrival = ready_t
        # (site, src, dst, seconds) per conversion pass charged to this task
        conversions: list[tuple[str, Precision, Precision, float]] = []
        conv_seconds = 0.0
        for inp in inputs:
            payload = inp.payload_precision
            key = inp.key
            t = ready.get(key)  # the GPU LRU's key set
            if t is not None:
                entries.move_to_end(key)
            else:
                if protect is None:
                    protect = _working_set(inputs, out_key)
                t = _load(rank, key, inp.elements * bpe(payload), protect)
            if t > arrival:
                arrival = t
            memo = (payload, task_prec, inp.role, inp.elements)
            ttc = ttc_pass.get(memo)
            if ttc is None:
                ttc = ttc_pass[memo] = _ttc(*memo)
            if ttc:
                conversions.append(ttc)
                seconds = ttc[3]
                conv_seconds += seconds
                n_ttc += 1
                ttc_seconds += seconds
                conversion_seconds += seconds
        sender = task.sender_conversion
        if sender is not None:
            stc = stc_pass.get(sender)
            if stc is None:
                stc = stc_pass[sender] = ("stc", *sender, conversion_time(gpu, nb * nb, *sender))
            conversions.append(stc)
            seconds = stc[3]
            conv_seconds += seconds
            n_stc += 1
            stc_seconds += seconds
            conversion_seconds += seconds

        free = compute_free[rank]
        start = free if free >= arrival else arrival
        exec_t = kernel_seconds.get((task.kind, task_prec))
        if exec_t is None:
            exec_t = kernel_seconds[task.kind, task_prec] = kernel_time(gpu, task.kind, nb, task_prec)
        end = start + exec_t + conv_seconds
        compute_free[rank] = end
        compute_seconds[task_prec] += end - start

        if conversions:
            stats.n_conversions += len(conversions)
        if record is not None:
            conv_t = start
            for site, src, dst, seconds in conversions:
                record(TraceEvent(rank, "compute", "CONVERT", conv_t, conv_t + seconds, task_prec,
                                  site=site, src_precision=src, dst_precision=dst))
                conv_t += seconds
            record(
                TraceEvent(
                    rank, "compute", task.kind, start + conv_seconds, end, task_prec, 0, task.flops
                )
            )
        flops = task.flops
        stats.total_flops += flops
        flops_by_precision[task_prec] = flops_by_precision.get(task_prec, 0.0) + flops
        stats.n_tasks += 1

        # output materialises on this GPU (a key written again moves to
        # the MRU end)
        ready[out_key] = end
        nbytes = tile_bytes[out_prec]
        cache.bytes += nbytes - entries.pop(out_key, 0)
        entries[out_key] = nbytes
        cache.dirty.add(out_key)
        origin_rank[out_key] = rank
        # STC payload copy (converted once here, broadcast in low precision);
        # a clean write leaves a dirty key dirty
        if sender is not None:
            pay_key = payload_key(out, sender[1])
            ready[pay_key] = end
            nbytes = tile_bytes[sender[1]]
            cache.bytes += nbytes - entries.pop(pay_key, 0)
            entries[pay_key] = nbytes
            origin_rank[pay_key] = rank
        if cache.bytes > cache.capacity:
            _evict_gpu(rank, protect if protect is not None else _working_set(inputs, out_key))
        return start, end

    sched_state = SchedState(
        resident=lambda rank, key: key in gpu_ready[rank],
        host_resident=lambda node, key: key in host_ready[node],
    )

    def finish(makespan: float) -> dict:
        stats.conversion_seconds = conversion_seconds
        for site, count, seconds in (("stc", n_stc, stc_seconds), ("ttc", n_ttc, ttc_seconds)):
            if count:
                stats.conversions_by_site[site] = count
                stats.conversion_seconds_by_site[site] = seconds
        for counter, nbytes in enumerate(link_bytes):
            if nbytes:
                stats.bytes_moved[LINKS[counter >> 3], precision_of[counter & 7]] = nbytes
        busy = {p: t for p, t in compute_seconds.items() if t}
        return dict(compute_seconds=busy, copy_seconds=copy_seconds,
                    joules=joules(gpu, makespan, busy, copy_seconds, n_gpus=n_ranks))

    return seed_host, exec_task, sched_state, finish


#: the ``RunStats.to_dict()`` counters a ``sim.complete`` event carries
_COMPLETE_KEYS = (
    "n_tasks", "makespan_seconds", "tflops", "h2d_bytes", "nic_bytes",
    "n_conversions", "n_evictions", "n_host_evictions", "n_spills",
)


def _finish(
    finish: Callable[[float], dict],
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
    ends = finish(makespan)
    doc = stats.to_dict()
    emit_event(
        "sim.complete",
        {key: doc[key] for key in _COMPLETE_KEYS} | {"policy": policy_name},
    )
    return SimReport(
        makespan=makespan,
        stats=stats,
        trace=trace,
        task_end=task_end,
        task_start=task_start,
        policy=policy_name,
        peak_live_tasks=peak_live,
        commit_order=commit_order,
        **ends,
    )


def _drive(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    *,
    policy_name: str,
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
    ``lookahead`` tasks are live, each retired after it has executed.
    The window refills in sweeps: once it has drained by ``sweep`` tasks
    (``REFILL_SWEEP``, at most ``lookahead // 8``, at least 1) it is
    topped back up to ``lookahead``, so ``peak_live_tasks`` is still the
    window.

    ``key_of`` (a policy's ``key``) orders a ready heap; ``order`` is
    instead a recorded tid sequence, checked against ``in_count`` — a
    task's number of unexecuted predecessors, ``-1`` once it has run
    itself — so anything but ``0`` is an invalid pick.
    """
    registry = get_registry()
    trace = Trace()
    stats = trace.stats
    seed_host, exec_task, sched_state, finish = _build_engine(
        platform, nb, trace.record if record_events else None, stats
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
    add = graph.add
    # the lists below grow in place (add) under a streamed source, so
    # these references stay current
    head, dst, nxt = graph.forward_star()
    tasks = graph.tasks
    n_ranks = platform.n_ranks
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
    # A streamed task is retired (dropped from ``tasks``; its successors
    # were walked when it executed) as a later task arrives, not as it
    # executes: frees keep pace with allocations, so a swept refill adds
    # no young GC collections.
    executed: list[int] = []
    # a bounded window refills once it has drained by one sweep
    sweep = 1 if lookahead == float("inf") else max(1, min(REFILL_SWEEP, int(lookahead) // 8))
    refill_at = lookahead - sweep

    live = 0
    peak_live = 0
    exhausted = False
    done = 0
    while True:
        if not exhausted and (live <= refill_at or (picks is None and not heap)):
            # One window fill up to ``lookahead`` — or, while a full window
            # is blocked, one more task.  The whole fill is host-seeded
            # before any of its ready tasks is keyed, so a residency-aware
            # policy scores roots alike whether they arrive in one emission
            # or a stream.  Each arriving task's inputs are walked once.
            limit = max(lookahead, live + 1)
            arrived_ready: list[int] = []
            while live < limit:
                task = next(emit, None)
                if task is None:
                    exhausted = True
                    break
                if executed:
                    tasks[executed.pop()] = None  # one executed task per arrival
                tid = add(task) if streamed else task.tid
                rank = task.rank
                if not 0 <= rank < n_ranks:  # the engine's per-rank tables would wrap
                    raise ValueError(f"rank {rank} outside platform of {n_ranks} ranks")
                # unexecuted predecessors, deduped like the graph's edges
                waiting: list[int] = []
                ready_t = 0.0
                for inp in task.inputs:
                    p = inp.producer
                    if p is None:
                        seed_host(rank, inp)
                    elif in_count[p] < 0:
                        end = task_end[p]
                        if end > ready_t:
                            ready_t = end
                    elif p not in waiting:
                        waiting.append(p)
                in_count.append(len(waiting))
                task_ready.append(ready_t)
                task_start.append(0.0)
                task_end.append(0.0)
                if not waiting:
                    arrived_ready.append(tid)
                live += 1
            if live > peak_live:
                peak_live = live
            # Heap entries are (*policy.key, tid): the tid makes every
            # policy deterministic.  Only tasks whose predecessors have all
            # executed enter the heap, so any pop order is a valid schedule.
            if key_of is not None:
                for tid in arrived_ready:
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
                blocker = next(p for p in graph.predecessors(tid) if in_count[p] >= 0)
                raise ValueError(
                    f"replay order violates precedence: task {tid} scheduled "
                    f"before its predecessor {blocker}"
                )
        commit(tid)
        start, end = exec_task(tasks[tid], task_ready[tid])
        task_start[tid] = start
        task_end[tid] = end
        in_count[tid] = -1
        edge = head[tid]
        while edge >= 0:
            succ = dst[edge]
            edge = nxt[edge]
            left = in_count[succ] - 1
            in_count[succ] = left
            if end > task_ready[succ]:
                task_ready[succ] = end
            if left == 0 and key_of is not None:
                heappush(heap, (*key_of(tasks[succ], task_ready[succ], sched_state), succ))
        if streamed:
            executed.append(tid)
        live -= 1
        done += 1
        if not done % PUBLISH_STRIDE:
            publish_counts()

    if live:
        if picks is not None:
            raise ValueError(f"replay order incomplete: {done}/{done + live} tasks executed")
        raise RuntimeError(
            f"simulation deadlock: {done} tasks executed, {live} live "
            "(emission order is not topological?)"
        )
    publish_counts()
    return _finish(finish, policy_name, trace, task_end, task_start, peak_live, commit_order)


@traced("sim.run")
def simulate(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    *,
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
    counters tick every ``PUBLISH_STRIDE`` executed tasks, and a
    ``sim.complete`` event carries the run's totals.
    """
    sched = resolve_policy(policy)
    sched.prepare(graph, platform, nb)
    return _drive(
        graph, platform, nb, key_of=sched.key, policy_name=sched.name,
        record_events=record_events,
    )


@traced("sim.run")
def simulate_stream(
    source: Iterable[Task],
    platform: Platform,
    nb: int,
    *,
    lookahead: int = 100_000,
    record_events: bool = True,
    policy: str | SchedulePolicy | None = None,
) -> SimReport:
    """Simulate a lazily-emitted task stream without materialising the DAG.

    ``source`` yields :class:`Task` objects in a dependency-safe
    (topological) emission order with dense tids — what
    :func:`repro.core.dag_cholesky.stream_cholesky_tasks` produces.
    Tasks are pulled into a :class:`TaskGraph` frontier until
    ``lookahead`` of them are live (emitted but unexecuted), scheduled
    exactly like :func:`simulate`, and retired once they have executed
    (one per arriving task), so peak memory tracks the window rather
    than the task count: ``peak_live_tasks`` is ``min(lookahead,
    n_tasks)`` for a stream that never blocks.  The window refills in
    sweeps — topped back up to ``lookahead`` once it has drained by
    ``REFILL_SWEEP`` tasks (at most ``lookahead // 8``; per task below
    8) — and each arriving task's inputs are walked once (rank check,
    host seeding, pending predecessors).  When the heap drains while the
    window is still blocked, emission widens past ``lookahead`` until a
    ready task appears (the window is a soft target, never a correctness
    constraint).

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
        policy_name=sched.name, record_events=record_events,
    )


@traced("sim.run")
def simulate_replay(
    graph: TaskGraph,
    platform: Platform,
    nb: int,
    order: "Iterable[int]",
    *,
    record_events: bool = True,
    source_policy: str = "panel-first",
) -> SimReport:
    """Execute a previously committed task order — no heap, no policy keys.

    ``order`` is the ``commit_order`` of an earlier :func:`simulate` /
    :func:`simulate_stream` run over the *same* graph and platform.  The
    engine state (caches, link timelines, conversions) evolves purely
    from the execution sequence, so replaying the committed order
    reproduces the original run bit-identically — same makespan, same
    stats, same trace content hash — while skipping every ready-heap
    push/pop and policy-key evaluation.

    The order is validated as it executes: every task id must appear
    exactly once and only after all its predecessors, else
    ``ValueError`` — an order recorded on a different graph shape
    fails fast instead of producing a silently wrong account.
    """
    return _drive(
        graph, platform, nb, order=order,
        policy_name=f"replay:{source_policy}", record_events=record_events,
    )
