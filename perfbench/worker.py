"""Child process of ``run.py``: one workload, one seed, timed or traced.

A fresh process per run keeps ``ru_maxrss`` and set-up cost per workload.
``run.py`` pins the BLAS pools in the environment before this process
(and so NumPy) starts.  Prints one JSON report as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from repro import obs  # noqa: E402

from harness import BLAS_PINS, Tracer, median, timed  # noqa: E402
from hostref import ref_kernel, speed_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run measures at least this many operations however short ``--seconds``
MIN_OPS = 3
#: untraced/traced pairs of the traced run (interleaved, so that drift in
#: host speed lands on both sides of the overhead ratio)
TRACED_OPS = 5


class Ops:
    """Runs operations, counting every attempt and every failure: an
    operation fails when it raises, fails its workload's output check,
    or returns pins that differ from the first operation's."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pins: dict | None = None

    def run(self, fn) -> float | None:
        """Wall seconds of one checked operation; None when it failed."""
        self.attempted += 1
        try:
            pins, wall = timed(fn)
        except Exception:
            return self._fail([traceback.format_exc(limit=4)])
        problems = self.wl.check(pins)
        if self.pins is None:
            self.pins = pins
        elif pins != self.pins:
            problems.append(f"output {pins} differs from the first operation's {self.pins}")
        return self._fail(problems) if problems else wall

    def verify(self) -> None:
        """The workload's cross-checks, counted as one more operation."""
        self.attempted += 1
        try:
            problems = self.wl.verify()
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self._fail(problems)

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(problems)
        return None


def hygiene() -> dict:
    """What could disturb a timing, as found when the timed loop starts."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pins": {var: os.environ.get(var) for var in BLAS_PINS},
        "gc_enabled": gc.isenabled(),
        "event_log_armed": obs.get_event_log() is not None,
        "live_plane_up": obs.get_plane() is not None,
        "profiler_active": obs.active_profiler() is not None,
    }


def run_timed(wl, ops: Ops, seconds: float, spawned_at: float, ref_at_start: float) -> dict:
    ops.run(wl.op)  # warm-up: caches fill, lazy imports finish
    ref = ref_kernel()
    setup_wall = time.monotonic() - spawned_at
    setup_factor = speed_factor(ref_at_start, ref)
    found = hygiene()

    samples: list[tuple[float, float]] = []  # (wall, reference-speed) seconds
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_OPS or time.perf_counter() < deadline:
        wall = ops.run(wl.op)
        done += 1
        gc.collect()  # between operations; the collector stays enabled during them
        after = ref_kernel()
        if wall is not None:
            samples.append((wall, wall * speed_factor(ref, after)))
        ref = after
    return {
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * setup_factor,
        "samples": samples,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "hygiene": found,
    }


def run_traced(wl, ops: Ops, out_dir: Path) -> dict:
    ops.run(wl.op)
    tracer = Tracer()

    def traced_call():
        with tracer.span("op"):
            return wl.traced_op(tracer)

    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    factors: list[float] = []
    ref = ref_kernel()
    for i in range(TRACED_OPS):
        tracer.op_id = i
        for samples, fn in ((untraced, wl.op), (traced, traced_call)):
            wall = ops.run(fn)
            gc.collect()
            after = ref_kernel()
            factor = speed_factor(ref, after)
            ref = after
            if wall is None:
                return {}  # the failure is in ops.failures; no layer numbers from a broken run
            samples.append((wall, wall * factor))
        factors.append(factor)

    per_op = [tracer.self_times(i) for i in range(TRACED_OPS)]
    layers = {name: median(per_op[i][name] * factors[i] for i in range(TRACED_OPS))
              for name in per_op[0] if name != "op"}
    op_s = median(s for _w, s in untraced)
    metrics = {f"{name}_s": t for name, t in layers.items()}
    metrics.update(wl.layer_metrics(op_s, layers, ops.pins))
    metrics.update({
        # pair by pair: neighbours in time share the host's speed
        "perfbench.trace_overhead_frac": median(
            t / u for (_tw, t), (_uw, u) in zip(traced, untraced)) - 1.0,
        "perfbench.op_wall_s": median(w for w, _s in untraced),
        "perfbench.host_speed": median(factors),
    })
    trace_file = f"trace-{wl.name}.json"
    (out_dir / trace_file).write_text(
        json.dumps({"workload": wl.name, "seed": wl.seed, "spans": tracer.spans}))
    return {
        "metrics": metrics,
        # share of the traced operation that lies inside a layer span
        "span_coverage": median(
            1.0 - per_op[i]["op"] / sum(per_op[i].values()) for i in range(TRACED_OPS)),
        "trace_file": trace_file,  # beside result.json
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "quick"), required=True)
    ap.add_argument("--verify", type=int, choices=(0, 1), required=True,
                    help="also run the workload's cross-checks after timing")
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)

    ref_kernel()  # the first pass pays OpenBLAS start-up
    ref_at_start = ref_kernel()
    wl = WORKLOADS[args.workload](args.seed, args.size, args.out_dir)
    wl.setup()
    ops = Ops(wl)
    if args.traced:
        report = run_traced(wl, ops, args.out_dir)
    else:
        report = run_timed(wl, ops, args.seconds, args.spawned_at, ref_at_start)
    if args.verify:
        ops.verify()
    report.update(
        why=wl.why,
        pins=ops.pins,
        pin_rtol=wl.pin_rtol,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
