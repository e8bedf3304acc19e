"""The host-speed reference kernel.

Why: the 2-core sandboxes this benchmark runs in move between speed
states (same code, same data: 0.37 s ↔ 0.47 s for seconds at a time),
so the raw median of a 10 s run wanders by 5–15 % and its range by far
more.  A fixed ~20 ms mix of what the program itself eats — BLAS and
dtype casts, a bytecode loop, and dict/heap/object churn — is timed
between every two operations, and an operation's wall time is scaled by
``REF_NOMINAL_S / (mean of the reference just before and just after)``.
Reported seconds are therefore *seconds on a host where the reference
kernel takes 20 ms*.  On the sandbox the scaled median of a run repeats
within 2–5 % where the raw one moves 5–16 % (README.md has the
numbers).  Raw wall seconds are kept beside every scaled number in
``out/result.json``.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: what the reference kernel takes on the machine the first baseline was
#: recorded on, in its fast state; fixed so results compare across runs
REF_NOMINAL_S = 0.020

_REF_A = np.random.default_rng(0).standard_normal((256, 256))


def ref_kernel() -> float:
    """Wall seconds of one pass of the fixed reference mix."""
    # the pass allocates; a collection it set off would walk the caller's
    # heap and time that (seen: 23 ms after gc.collect(), 30 ms without)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _ref_pass()
    finally:
        if collecting:
            gc.enable()


def _ref_pass() -> float:
    t0 = time.perf_counter()
    # the numeric layers' diet: small GEMMs and fp16/fp64 casts
    a = _REF_A
    for _ in range(8):
        (a @ a).astype(np.float16).astype(np.float64)
    # plain bytecode
    s = 0
    for i in range(100_000):
        s += i * i
    # the simulator's diet: tuple keys, dict updates, a heap, short-lived objects
    heap: list = []
    counts: dict = {}
    live = []
    for i in range(12_000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0.0) + 1.0
        heapq.heappush(heap, (float((i * 7919) % 1013), 0.0, i))
        live.append([i, key])
        if i & 1:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def speed_factor(*refs: float) -> float:
    """Multiplier that turns wall seconds into reference-speed seconds."""
    return REF_NOMINAL_S / (sum(refs) / len(refs))
