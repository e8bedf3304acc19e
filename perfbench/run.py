"""perfbench — host time of MLE evaluation and symbolic simulate, end to
end and layer by layer.

    python3 perfbench/run.py                      # every workload, timed + traced
    python3 perfbench/run.py --workload sim_stream --seed 3 --seconds 8 --trace 0

A closed loop with one client.  Each workload runs in fresh worker
processes with the BLAS pools pinned to one thread: the timed run in
three of them one after the other (so ``setup_s`` and ``peak_rss_mb``
are medians of three set-ups, and ``op_s`` the median of every
operation they timed), the traced run in one.  Outputs are checked
against invariants on every seed and against ``expected.json`` on seed 0.
Prints every metric by name with its unit, writes ``out/result.json``,
and ends standard output with one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import BLAS_PINS, median, quartiles  # noqa: E402

#: set-ups (worker processes) per timed run
SETUPS = 3
#: per-layer metrics that are outputs of the program, exact for a seed,
#: rather than timings: these units, and the share of low-precision tiles
EXACT_UNITS = ("count", "B", "sim_s")
EXACT_NAMES = ("precision.lowprec_tile_frac",)


def summary(scaled: list[float], wall: list[float], unit: str) -> dict:
    q1, q3 = quartiles(scaled)
    return {"value": median(scaled), "unit": unit, "n": len(scaled), "q1": q1, "q3": q3,
            "wall": median(wall)}


def spawn(args, workload: str, traced: int, seconds: float, verify: bool) -> dict:
    """Run one worker process to its end and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed), "--seconds", repr(seconds),
           "--traced", str(traced), "--size", "quick" if args.quick else "full",
           "--verify", str(int(verify)), "--out-dir", str(args.out_dir),
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env={**os.environ, **BLAS_PINS}, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def pin_failures(pins: dict, expected: dict, rtol: dict) -> list[str]:
    """Compare seed-0 outputs with their pinned values."""
    fails = []
    for key, got in pins.items():
        if key not in expected:
            fails.append(f"{key}: not pinned in expected.json")
        elif not math.isclose(got, expected[key], rel_tol=rtol.get(key, 0.0), abs_tol=0.0):
            fails.append(f"{key}: got {got!r}, expected {expected[key]!r}")
    return fails


def finish(entry: dict, reports: list[dict], pins: dict, expected: dict | None) -> dict:
    """Fold the workers' failure counts and the pin check (one more
    operation; skipped when ``expected`` is None) into ``entry``."""
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    if expected is not None:
        attempted += 1
        problems = pin_failures(pins, expected, reports[0]["pin_rtol"])
        failed += bool(problems)
        failures += problems
    entry.update(why=reports[0]["why"], pins=pins, attempted=attempted, failed=failed,
                 fail_frac=failed / attempted, failures=failures)
    return entry


def run_timed(args, workload: str, expected) -> dict:
    reports = [spawn(args, workload, 0, args.seconds / SETUPS, verify=(i == 0))
               for i in range(SETUPS)]
    samples = [s for r in reports for s in r["samples"]]
    entry = {"hygiene": reports[0]["hygiene"]}
    if samples:
        rss_mb = [r["rss_kb"] / 1024.0 for r in reports]
        entry["end_to_end"] = {
            "op_s": summary([s for _w, s in samples], [w for w, _s in samples], "s"),
            "setup_s": summary([r["setup_s"] for r in reports],
                               [r["setup_wall_s"] for r in reports], "s"),
            "peak_rss_mb": summary(rss_mb, rss_mb, "MB"),
        }
    return finish(entry, reports, reports[0]["pins"], expected)


def run_traced(args, spec, workload: str, expected) -> dict:
    report = spawn(args, workload, 1, 0.0, verify=False)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = report.get("metrics", {})
    unknown = sorted(set(got) - set(units))
    if unknown:
        raise RuntimeError(f"{workload} reports metrics BENCHMARK.json does not list: {unknown}")
    # a layer the workload never enters reads 0
    metrics = {name: got.get(name, 0.0) for name in units}
    pins = {**report["pins"],
            **{n: v for n, v in metrics.items() if units[n] in EXACT_UNITS or n in EXACT_NAMES}}
    entry = {"span_coverage": report.get("span_coverage"), "trace_file": report.get("trace_file")}
    if got:
        entry["per_layer"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    return finish(entry, [report], pins, expected)


def print_entry(workload: str, entry: dict) -> None:
    for kind, part in entry.items():
        print(f"{workload} ({kind} run): {part['failed']} failed of {part['attempted']} attempted")
        for name, m in part.get("end_to_end", {}).items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<6} "
                  f"n={m['n']} IQR [{m['q1']:.6g}, {m['q3']:.6g}] wall {m['wall']:.6g}")
        for name, m in part.get("per_layer", {}).items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
        if part.get("span_coverage") is not None:
            print(f"  layer spans cover {100 * part['span_coverage']:.1f} % of the traced operation")
        for failure in part["failures"]:
            print(f"  FAILED: {failure}")


def host_state() -> dict:
    nproc = os.cpu_count()
    load1 = os.getloadavg()[0]
    return {"nproc": nproc, "load1_at_start": load1, "loaded": load1 > nproc}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="how long a timed run measures, over its three worker processes")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: timed run only; 1: traced run only; default: both")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes for perfbench/tests; never a baseline")
    ap.add_argument("--out-dir", type=Path, default=HERE / "out")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="pinned seed-0 outputs")
    ap.add_argument("--update-expected", action="store_true",
                    help="write this run's outputs to --expected instead of checking them "
                         "(seed 0, every workload, both runs)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.update_expected and (args.seed != 0 or args.workload or args.trace is not None):
        ap.error("--update-expected needs seed 0, every workload and both runs")
    args.out_dir.mkdir(parents=True, exist_ok=True)

    size = "quick" if args.quick else "full"
    pinned = json.loads(args.expected.read_text())
    host = host_state()
    if host["loaded"]:
        print(f"perfbench: 1-min load {host['load1_at_start']:.2f} exceeds {host['nproc']} "
              f"cores; timings of this run are suspect", file=sys.stderr)
    result = {"schema": "perfbench/1", "seed": args.seed, "size": size, "seconds": args.seconds,
              "host": host, "workloads": {}}
    attempted = failed = 0
    for workload in [args.workload] if args.workload else names:
        # pins exist for seed 0 only
        expected = None if args.update_expected or args.seed else pinned[size].get(workload, {})
        entry = {}
        if args.trace in (None, 0):
            entry["timed"] = run_timed(args, workload, expected)
        if args.trace in (None, 1):
            entry["traced"] = run_traced(args, spec, workload, expected)
        attempted += sum(part["attempted"] for part in entry.values())
        failed += sum(part["failed"] for part in entry.values())
        result["workloads"][workload] = entry
        print_entry(workload, entry)
    result["correct"] = failed == 0

    if args.update_expected:
        pinned[size] = {w: {**e["timed"]["pins"], **e["traced"]["pins"]}
                        for w, e in result["workloads"].items()}
        args.expected.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.expected}")
    (args.out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    # the driver's line: one workload, one of the two runs
    metrics = {}
    if args.workload and args.trace is not None:
        part = result["workloads"][args.workload]["traced" if args.trace else "timed"]
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in part.get("per_layer" if args.trace else "end_to_end", {}).items()}
        if not metrics:
            print("perfbench: no operation succeeded, nothing to report", file=sys.stderr)
            return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
