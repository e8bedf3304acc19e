"""The simulator's byte-bounded LRU tiers, observed through the engine.

Each memory tier sheds its own overflow inside the engine: the GPU tier
pops its least-recently-used payloads until it fits, skipping the
running task's working set (its inputs and output) and reinstating those
at the LRU end, oldest first.  The tests below drive :func:`simulate`
over purpose-built task graphs on a GPU a few payloads wide and read the
tier's decisions off the run:

* which payloads the GPU loads — one h2d ``LOAD`` per miss, so a second
  load of a payload means it was evicted in between (every host tile has
  its own size, which names the ``LOAD``);
* ``RunStats.n_evictions``, and the d2h ``EVICT`` write-backs;
* which payloads are resident after each task, through a policy that
  reads the live residency the engine hands every ``key`` call.

Unless a test says otherwise every task writes one shared accumulator
tile, so the only output entry is always protected and most recent: the
host tiles are all the LRU order a test sees.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analysis.ledger import build_ledger
from repro.perfmodel.gpus import NodeSpec, V100
from repro.precision import Precision
from repro.runtime import Platform, TaskGraph, TaskInput, simulate
from repro.runtime.policies import SchedulePolicy
from repro.runtime.simulator import simulate_stream
from repro.runtime.task import Task, payload_key

NB = 1  # a task's output is nb² = one FP64 word: 8 bytes
FP64 = Precision.FP64
ACC = (99, 99, 1)  # the shared accumulator tile
ACC_BYTES = 8

#: host tile name -> elements; every tile has its own byte size
NAMES = ("a", "b", "c", "d", "k", "p", "q", "v", "p1", "p2", "p3", "v1", "v2")
ELEMENTS = {name: 1000 + i for i, name in enumerate(NAMES)}
SEED_MAX = 8 * max(ELEMENTS.values())
ELEMENTS["big"] = SEED_MAX // 4  # as wide as two other tiles
NAME_OF_BYTES = {8 * e: name for name, e in ELEMENTS.items()}
TILE_OF = {name: (i, 0, 0) for i, name in enumerate(sorted(ELEMENTS))}


def room(tiles: int) -> int:
    """GPU bytes that hold any ``tiles`` host tiles (and no more) beside the accumulator."""
    return tiles * SEED_MAX + ACC_BYTES


def platform(gpu_bytes: float, gpus: int = 1) -> Platform:
    gpu = dataclasses.replace(V100, memory_bytes=gpu_bytes)
    return Platform(NodeSpec("lru", gpu, gpus, 256e9, 25e9, 1.5e-6), n_nodes=1)


def seed(name: str) -> TaskInput:
    return TaskInput(None, TILE_OF[name], FP64, FP64, ELEMENTS[name])


def task(tid: int, reads, output=ACC) -> Task:
    """A rank-0 task reading the named host tiles in order, writing ``output``."""
    names = (reads,) if isinstance(reads, str) else reads
    return Task(tid=tid, kind="GEMM", params=(), rank=0, precision=FP64, flops=1.0,
                output=output, output_precision=FP64, inputs=[seed(n) for n in names])


def chain(*reads) -> TaskGraph:
    """Task ``t`` reads ``reads[t]`` and writes the accumulator; every task
    is ready at t=0, so they run in tid order."""
    graph = TaskGraph()
    for tid, names in enumerate(reads):
        graph.add(task(tid, names))
    graph.finalize()
    return graph


def run(graph: TaskGraph, gpu_bytes: float, **kw):
    rep = simulate(graph, platform(gpu_bytes, **kw), NB)
    assert rep.commit_order == list(range(len(graph)))
    return rep


def loads(rep) -> list[str]:
    """Host tiles in the order the GPU loaded them."""
    events = sorted((e for e in rep.trace.events if e.kind == "LOAD"), key=lambda e: e.t_start)
    return [NAME_OF_BYTES[e.bytes] for e in events]


def writebacks(rep) -> list:
    return [e for e in rep.trace.events if e.kind == "EVICT"]


class TestBasics:
    def test_insert_and_contains(self):
        """A loaded payload stays resident: three reads, one load."""
        rep = run(chain("a", "a", "a"), room(2))
        assert loads(rep) == ["a"]
        assert rep.stats.n_evictions == 0

    def test_reinsert_merges_bytes_and_dirty(self):
        """The dirty bit is sticky: a clean re-write of a dirty key (an STC
        payload copy) does not clear it, so its eviction still writes back
        although the host already holds the key."""
        x, fp32 = (50, 0, 1), Precision.FP32
        graph = TaskGraph()
        # rank 0 writes x; rank 1 reads it, which stages a copy on the host
        graph.new_task(kind="POTRF", params=(), rank=0, precision=FP64, flops=1.0,
                       output=x, output_precision=FP64)
        graph.new_task(kind="GEMM", params=(), rank=1, precision=FP64, flops=1.0,
                       output=ACC, output_precision=FP64, inputs=[TaskInput(0, x, FP64, FP64, 1)])
        # rank 0 re-writes x at FP32 beside an FP64 payload copy: x's key, written clean
        graph.new_task(kind="POTRF", params=(), rank=0, precision=fp32, flops=1.0,
                       output=x, output_precision=fp32, sender_conversion=(fp32, FP64),
                       inputs=[TaskInput(0, x, FP64, FP64, 1)])
        # loading a on the 0-byte GPU sheds the FP64 x
        graph.new_task(kind="GEMM", params=(), rank=0, precision=FP64, flops=1.0,
                       output=ACC, output_precision=FP64,
                       inputs=[TaskInput(2, x, fp32, fp32, 1), seed("a")])
        graph.finalize()
        rep = run(graph, 0, gpus=2)
        stages = [e for e in rep.trace.events if e.kind == "STAGE"]
        assert [(e.rank, e.precision) for e in stages] == [(0, FP64)]
        assert [(e.rank, e.precision, e.bytes) for e in writebacks(rep)] == [(0, FP64, 8)]
        assert min(e.t_start for e in writebacks(rep)) > stages[0].t_end

    def test_zero_capacity_holds_only_the_working_set(self, unbounded):
        """0 bytes is a GPU that keeps a task's working set until the next
        pass sheds it — not an unbounded one."""
        reads = (("a", "b"), ("a", "b"), ("c",), ("a",))
        rep = run(chain(*reads), 0)
        assert loads(rep) == ["a", "b", "c", "a"]
        assert rep.stats.n_evictions == 3
        endless = simulate(chain(*reads), unbounded(platform(0)), NB)
        assert loads(endless) == ["a", "b", "c"]
        assert endless.stats.n_evictions == 0

    def test_within_capacity_is_noop(self):
        rep = run(chain("a", "b", "a", "b"), room(2))
        assert loads(rep) == ["a", "b"]
        assert rep.stats.n_evictions == 0


class TestEvictionOrder:
    def test_evicts_least_recently_used_first(self):
        """Loading c evicts only the oldest tile (a): b is still a hit."""
        rep = run(chain("a", "b", "c", "b", "a", "b"), room(2))
        assert loads(rep) == ["a", "b", "c", "a"]
        assert rep.stats.n_evictions == 2

    def test_touch_promotes_to_mru(self):
        """Reading a again makes b the oldest, so c evicts b."""
        rep = run(chain("a", "b", "a", "c", "a", "b"), room(2))
        assert loads(rep) == ["a", "b", "c", "b"]
        assert rep.stats.n_evictions == 2

    def test_reports_dirty_flag(self):
        """Every eviction counts; only the dirty output is written back
        (d2h), the clean host tiles are dropped for free, and the
        written-back output is then loaded from the host."""
        d = (50, 0, 1)
        graph = TaskGraph()
        graph.new_task(kind="GEMM", params=(), rank=0, precision=FP64, flops=1.0,
                       output=d, output_precision=FP64, inputs=[seed("a")])
        graph.new_task(kind="GEMM", params=(), rank=0, precision=FP64, flops=1.0,
                       output=ACC, output_precision=FP64, inputs=[seed("b")])
        graph.new_task(kind="GEMM", params=(), rank=0, precision=FP64, flops=1.0,
                       output=ACC, output_precision=FP64, inputs=[TaskInput(0, d, FP64, FP64, 1)])
        graph.finalize()
        rep = run(graph, 0)
        assert rep.stats.n_evictions == 3  # a, d, then b for d
        (evict,) = writebacks(rep)
        assert (evict.precision, evict.bytes) == (FP64, 8)
        assert rep.stats.to_dict()["d2h_bytes"] == 8
        last_load = max((e for e in rep.trace.events if e.kind == "LOAD"), key=lambda e: e.t_start)
        assert last_load.bytes == 8 and last_load.t_start >= evict.t_end


class TestProtectedEntries:
    def test_protected_skipped_and_reinstated_in_order(self):
        """Loading big (two tiles wide) must free two tiles while p1 and p2,
        the task's other inputs, are protected: v1 and v2 go, p1 and p2 hit."""
        rep = run(chain("p1", "v1", "p2", "v2", ("big", "p1", "p2"), "v1", "v2"), room(4))
        assert loads(rep) == ["p1", "v1", "p2", "v2", "big", "v1", "v2"]
        assert rep.stats.n_evictions == 3  # v1, v2, then big for v1

    def test_protected_remain_first_eviction_candidates(self):
        """The second task's working set overflows the GPU: every entry is
        protected and reinstated oldest first, so the next pass evicts p1
        then p2 and stops — p3, the newest, is still a hit."""
        rep = run(chain("p1", ("p1", "p2", "p3"), "k", "p3", "p1"), room(2))
        assert loads(rep) == ["p1", "p2", "p3", "k", "p1"]
        assert rep.stats.n_evictions == 3  # p1, p2, then k for p1

    def test_everything_protected_over_capacity(self):
        """A working set three tiles wide on a one-tile GPU: the pass
        terminates evicting nothing, and the same reads hit."""
        rep = run(chain(("a", "b", "c"), ("a", "b", "c"), "d"), room(1))
        assert loads(rep) == ["a", "b", "c", "d"]
        assert rep.stats.n_evictions == 3  # a, b and c, once d needs the room

    def test_partial_protection_still_reaches_capacity(self):
        """k's load skips the protected p and evicts v: the tier fits again."""
        rep = run(chain("p", "v", ("k", "p"), "v", "p"), room(2))
        assert loads(rep) == ["p", "v", "k", "v"]
        assert rep.stats.n_evictions == 2


class _Residency(SchedulePolicy):
    """Records, at each ``key`` call, which of ``universe`` rank 0 holds."""

    name = "residency"

    def __init__(self, universe):
        self.universe = universe
        self.snapshots: list[set] = []

    def key(self, task, ready_t, state):
        self.snapshots.append({k for k in self.universe if state.resident(0, k)})
        return (ready_t, 0.0)


_TASKS = st.lists(
    st.tuples(st.lists(st.sampled_from(NAMES[:8]), max_size=3, unique=True), st.booleans()),
    min_size=1, max_size=16,
)


def spec_tasks(spec) -> list[Task]:
    """Task ``t`` reads the named host tiles and writes the accumulator,
    or (flag set) a tile of its own."""
    return [task(tid, names, (200 + tid, 0, 1) if own else ACC)
            for tid, (names, own) in enumerate(spec)]


def spec_run(spec, capacity: float):
    graph = TaskGraph()
    for t in spec_tasks(spec):
        graph.add(t)
    graph.finalize()
    return run(graph, capacity)


@settings(max_examples=200, deadline=None)
@given(spec=_TASKS, tiles=st.integers(0, 5))
def test_lru_invariants(spec, tiles):
    """After every task the GPU is within capacity or holds only that
    task's working set, whose every payload it still holds; the byte
    ledger reconciles; each entry created is resident or was evicted."""
    capacity = room(tiles) if tiles else 0
    size = {payload_key(TILE_OF[n], FP64): 8 * ELEMENTS[n] for n in NAMES[:8]}
    acc = payload_key(ACC, FP64)
    probe = _Residency({*size, acc} | {payload_key((200 + t, 0, 1), FP64) for t in range(len(spec))})
    # one task in flight: each task is keyed right after its predecessor
    # ran, and a last empty task is keyed after the final one
    tasks = spec_tasks([*spec, ((), False)])
    simulate_stream(iter(tasks), platform(capacity), NB, lookahead=1, policy=probe)
    for done, resident in zip(tasks, probe.snapshots[1:]):
        working = {inp.key for inp in done.inputs} | {payload_key(done.output, FP64)}
        assert working <= resident
        assert sum(size.get(k, 8) for k in resident) <= capacity or resident <= working
    rep = spec_run(spec, capacity)  # the same schedule, without the last task
    assert build_ledger(events=rep.trace.events).reconcile(rep.stats) == []
    # an output is a new entry unless it re-writes a resident accumulator
    created = len(loads(rep)) + sum(
        own or acc not in before for (_, own), before in zip(spec, probe.snapshots)
    )
    assert rep.stats.n_evictions == created - len(probe.snapshots[-1])


class _TupleLru:
    """The reference model: the GPU tier's LRU as it held ``key -> (bytes, dirty)``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.bytes = 0

    def __contains__(self, key):
        return key in self.entries

    def touch(self, key):
        self.entries.move_to_end(key)

    def insert(self, key, nbytes, dirty):
        if key in self.entries:
            old_bytes, old_dirty = self.entries.pop(key)
            self.bytes -= old_bytes
            dirty = dirty or old_dirty
        self.entries[key] = (nbytes, dirty)
        self.bytes += nbytes

    def evict_until_fits(self, protect):
        evicted = []
        if self.bytes <= self.capacity:
            return evicted
        skipped = []
        while self.bytes > self.capacity and self.entries:
            key, (nbytes, dirty) = self.entries.popitem(last=False)
            if key in protect:
                skipped.append((key, (nbytes, dirty)))
                continue
            self.bytes -= nbytes
            evicted.append((key, nbytes, dirty))
        for key, value in reversed(skipped):
            self.entries[key] = value
            self.entries.move_to_end(key, last=False)
        return evicted


@settings(max_examples=300, deadline=None)
@given(spec=_TASKS, tiles=st.integers(0, 5))
def test_lru_matches_reference_model(spec, tiles):
    """Random task sequences: the engine loads the same tiles in the same
    order as the reference LRU driven by the same protocol (touch or load
    each input, write the output, shed with the working set protected),
    evicts as often, and writes back exactly the dirty evictions."""
    capacity = room(tiles) if tiles else 0
    ref = _TupleLru(capacity)
    ref_loads, evicted = [], []
    for tid, (names, own) in enumerate(spec):
        out = (200 + tid, 0, 1) if own else ACC
        protect = set(names) | {out}
        for name in names:
            if name in ref:
                ref.touch(name)
            else:
                ref.insert(name, 8 * ELEMENTS[name], False)
                ref_loads.append(name)
                evicted += ref.evict_until_fits(protect)
        ref.insert(out, 8, True)
        evicted += ref.evict_until_fits(protect)
    rep = spec_run(spec, capacity)
    assert loads(rep) == ref_loads
    assert rep.stats.n_evictions == len(evicted)
    assert len(writebacks(rep)) == sum(dirty for _, _, dirty in evicted)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
