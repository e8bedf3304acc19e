"""Compare two perfbench results under the bounds of BENCHMARK.json.

    python3 perfbench/compare.py BASE.json NEW.json

One row per (end-to-end metric, workload): base, new, new ÷ base and a
verdict — ``better`` or ``worse`` when the median moved by more than
the metric's bound, ``unresolved`` when it did but the two runs' own
interquartile ranges overlap, ``within`` otherwise.  Every pinned output
(kernel-call counts, simulated statistics, likelihood values) must be
identical.  Exits 1 on a ``worse`` row or a changed output, 2 when the
two results cannot be compared at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def refusal(base: dict, new: dict) -> str | None:
    """Why the two results are not comparable, if they are not."""
    for label, doc in (("base", base), ("new", new)):
        if doc.get("schema") != "perfbench/1":
            return f"{label} is not a perfbench/1 result"
        if doc["size"] != "full":
            return f"{label} is a --quick result, which is never a baseline"
    if base["seed"] != new["seed"]:
        return f"seeds differ: {base['seed']} vs {new['seed']}"
    pins = [{w: e["timed"]["hygiene"]["blas_pins"] for w, e in doc["workloads"].items()
             if "timed" in e} for doc in (base, new)]
    if pins[0] != pins[1]:
        return f"BLAS thread pins differ: {pins[0]} vs {pins[1]}"
    return None


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """Judge one metric; ``base``/``new`` hold value, q1 and q3."""
    change = new["value"] / base["value"] - 1.0
    if abs(change) <= bound:
        return "within"
    hi, lo = (new, base) if change > 0 else (base, new)
    if hi["q1"] <= lo["q3"]:  # the larger one's IQR reaches down into the smaller one's
        return "unresolved"
    return "worse" if (change > 0) == (better == "lower") else "better"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` and the
    pinned outputs that changed."""
    rows, changed = [], []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        b, n = base["workloads"][workload], new["workloads"][workload]
        if "timed" in b and "timed" in n:
            for metric in spec["end_to_end"]:
                mb = b["timed"]["end_to_end"][metric["name"]]
                mn = n["timed"]["end_to_end"][metric["name"]]
                rows.append((workload, metric["name"], mb["value"], mn["value"],
                             mn["value"] / mb["value"],
                             verdict(mb, mn, metric["bound"], metric["better"])))
        for kind in b.keys() & n.keys():
            pb, pn = b[kind]["pins"], n[kind]["pins"]
            changed += [f"{workload} ({kind} run) {key}: {pb[key]!r} -> {pn[key]!r}"
                        for key in pb if key in pn and pb[key] != pn[key]]
    return rows, changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    why_not = refusal(base, new)
    if why_not:
        print(f"compare: refusing: {why_not}", file=sys.stderr)
        return 2
    rows, changed = compare(base, new, spec)
    print(f"{'workload':<18} {'metric':<12} {'base':>10} {'new':>10} {'new/base':>9}  verdict")
    for workload, metric, b, n, ratio, v in rows:
        print(f"{workload:<18} {metric:<12} {b:>10.4g} {n:>10.4g} {ratio:>9.3f}  {v}")
    for line in changed:
        print(f"output changed: {line}")
    regressed = changed or any(v == "worse" for *_rest, v in rows)
    print("verdict: " + ("REGRESSION" if regressed else "ok"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
