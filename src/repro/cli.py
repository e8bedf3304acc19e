"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mle``       fit a synthetic dataset at one or more accuracy levels
``maps``      print the kernel/communication precision maps for an app
``simulate``  price a mixed-precision Cholesky on a simulated platform —
              the one symbolic-run verb: its flags are one ``RunSpec``,
              priced as a sweep point is (:func:`repro.sweep.price_run`);
              always records host wall time, tasks/sec and peak RSS
``sweep``     fan a grid of configurations across a process pool (cached);
              its ``--policy`` axis is the per-policy comparison
``info``      show the encoded GPU specifications (Table I)
``analyze``   read a captured run (trace, summary, event log or run dir):
              run header, event counts, data-motion ledger, conversion-site
              attribution, critical path, utilization
``compare``   regression sentinel: diff BENCH/run-summary documents with
              per-metric thresholds; ``--fail-on-regress`` gates CI

Telemetry flags (see ``docs/OBSERVABILITY.md``): ``simulate`` takes
``--trace-out`` (Perfetto JSON with counter tracks), ``--metrics-out``
(metrics + manifest + run stats), ``--events-out`` (JSONL) and
``--profile-out`` (sampling profiler; prints the hottest frames);
``mle`` takes ``--events-out`` for per-iteration records.  The family is
declared once, in :func:`_add_capture_flags`.

Resilience flags (see ``docs/RESILIENCE.md``): ``sweep`` takes
``--max-retries`` (per-point retry with exponential backoff) and
``--fault-plan`` (JSON :class:`repro.faults.FaultPlan` of scripted
failures for testing the recovery paths).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]


def _add_live_flags(p: argparse.ArgumentParser) -> None:
    """The live-telemetry-plane flags shared by long-running verbs."""
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics and /healthz on "
                        "127.0.0.1:PORT while the run is in flight "
                        "(0 = ephemeral port; see docs/OBSERVABILITY.md)")
    p.add_argument("--live-port-file", default=None, metavar="PATH",
                   help="write the bound live port to PATH (for pollers "
                        "when --live-port 0 picked an ephemeral port)")


#: per-verb wording of the telemetry-output flags (the verb is the last
#: word of the sub-parser's ``prog``); the flags themselves are declared
#: once, in :func:`_add_capture_flags`
_CAPTURE_HELP = {
    "mle": {
        "events": "write per-iteration telemetry to a JSONL event log",
        "metrics": "write metrics + run manifest as JSON",
    },
    "simulate": {
        "events": "write a structured JSONL event log",
        "metrics": "write metrics + run manifest + run stats as JSON",
        "profile": "run under the sampling profiler, print the hottest "
                   "frames and write the repro.obs.profile/1 document "
                   "(see docs/OBSERVABILITY.md)",
    },
    "sweep": {
        "events": "write sweep.run/sweep.complete events to a JSONL log",
        "metrics": "write metrics + campaign manifest as JSON",
        "profile": "run the sweep under the sampling profiler and write "
                   "the repro.obs.profile/1 document",
    },
}


def _add_capture_flags(p: argparse.ArgumentParser, *, trace: bool, profile: bool) -> None:
    """The telemetry-output flag family (see ``docs/OBSERVABILITY.md``):
    ``--events-out`` and ``--metrics-out`` always; ``--profile-out`` for
    the verbs that run under the sampling profiler; ``--trace-out``
    and ``--run-id`` for the one verb that records a simulator trace.
    :func:`_capture` / :func:`_write_capture` act on them."""
    text = _CAPTURE_HELP[p.prog.split()[-1]]
    p.add_argument("--events-out", default=None, metavar="PATH", help=text["events"])
    p.add_argument("--metrics-out", default=None, metavar="PATH", help=text["metrics"])
    if profile:
        p.add_argument("--profile-out", default=None, metavar="PATH",
                       help=text["profile"])
    if trace:
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Perfetto/Chrome trace JSON with counter tracks")
        p.add_argument("--run-id", default=None,
                       help="run identifier for logs/manifest")


def build_parser() -> argparse.ArgumentParser:
    from .core import FIXED_CONFIGS, ConversionStrategy
    from .perfmodel import GPU_BY_NAME
    from .runtime.platform import DEFAULT_HOST_MEMORY_GB
    from .runtime.policies import POLICY_NAMES
    from .sweep.grid import KERNEL_CONFIGS, ORDERINGS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive mixed-precision Cholesky for geospatial modeling "
        "(CLUSTER 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mle", help="fit a synthetic dataset")
    p.add_argument("--model", default="2d-matern",
                   choices=["2d-matern", "2d-sqexp", "3d-sqexp"])
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--accuracy", type=float, action="append", default=None,
                   help="u_req level(s); repeatable (default: 1e-9)")
    p.add_argument("--exact", action="store_true", help="also run the FP64 reference")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nugget", type=float, default=None,
                   help="measurement-error variance (default: 0.01 for sqexp)")
    _add_capture_flags(p, trace=False, profile=False)

    p = sub.add_parser("maps", help="print precision maps for an application")
    p.add_argument("--app", default="2d-matern",
                   choices=["2d-sqexp", "2d-matern", "3d-sqexp"])
    p.add_argument("--n", type=int, default=16384)
    p.add_argument("--nb", type=int, default=2048)
    p.add_argument("--accuracy", type=float, default=None,
                   help="override the application's u_req")

    p = sub.add_parser("simulate", help="price a factorization on simulated hardware")
    # the RunSpec every performance experiment of the paper varies, each
    # dest its field: GPU model × GPUs × nodes × n × nb × config × strategy
    p.add_argument("--gpu", default="V100", choices=list(GPU_BY_NAME))
    p.add_argument("--gpus", type=int, default=1, dest="gpus_per_node", help="GPUs per node")
    p.add_argument("--nodes", type=int, default=1, dest="n_nodes")
    p.add_argument("--n", type=int, default=32768)
    p.add_argument("--nb", type=int, default=2048)
    p.add_argument("--config", default="FP64/FP16", choices=list(FIXED_CONFIGS))
    p.add_argument("--strategy", default="auto",
                   choices=[s.value for s in ConversionStrategy])
    p.add_argument("--host-memory-gb", type=float, default=DEFAULT_HOST_MEMORY_GB,
                   help="host DRAM capacity per node in GB; tiles evicted "
                        "beyond this spill to the simulated disk tier — "
                        "shrink it to surface eviction/spill traffic "
                        f"(default: {DEFAULT_HOST_MEMORY_GB:g})")
    p.add_argument("--policy", default="panel-first", choices=list(POLICY_NAMES),
                   help="scheduling policy for the ready heap "
                        "(default: panel-first; see docs/SCHEDULING.md)")
    p.add_argument("--stream", action="store_true",
                   help="million-task mode: consume the k-major task "
                        "emission lazily instead of holding the DAG — same "
                        "task ids, same makespan bit for bit, O(NT²) live "
                        "memory (frontier-local policies only)")
    _add_capture_flags(p, trace=True, profile=True)
    _add_live_flags(p)

    p = sub.add_parser("sweep", help="run a campaign over a grid of configurations")
    p.add_argument("--n", type=int, action="append", default=None,
                   help="matrix size axis; repeatable (default: 4096)")
    p.add_argument("--nb", type=int, action="append", default=None,
                   help="tile size axis; repeatable (default: 512)")
    p.add_argument("--config", action="append", default=None,
                   choices=list(KERNEL_CONFIGS),
                   help="kernel-precision configuration axis; repeatable (default: FP64)")
    p.add_argument("--strategy", action="append", default=None,
                   choices=[s.value for s in ConversionStrategy],
                   help="conversion strategy axis; repeatable (default: auto)")
    p.add_argument("--gpu", action="append", default=None,
                   choices=list(GPU_BY_NAME),
                   help="GPU model axis; repeatable (default: V100)")
    p.add_argument("--gpus", type=int, action="append", default=None, dest="gpus_per_node",
                   help="GPUs-per-node axis; repeatable (default: 1)")
    p.add_argument("--nodes", type=int, action="append", default=None, dest="n_nodes",
                   help="node-count axis; repeatable (default: 1)")
    p.add_argument("--host-memory-gb", type=float, action="append", default=None,
                   help="host DRAM per node axis in GB, as simulate's; "
                        f"repeatable (default: {DEFAULT_HOST_MEMORY_GB:g})")
    p.add_argument("--app", action="append", default=None,
                   choices=["2d-sqexp", "2d-matern", "3d-sqexp"],
                   help="application axis for adaptive configs (default: 2d-matern)")
    p.add_argument("--accuracy", type=float, action="append", default=None,
                   help="u_req axis for adaptive configs; repeatable")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="seed axis (adaptive norm sampling); repeatable (default: 0)")
    p.add_argument("--policy", action="append", default=None,
                   choices=list(POLICY_NAMES),
                   help="scheduling-policy axis; repeatable (default: panel-first)")
    p.add_argument("--ordering", action="append", default=None,
                   choices=list(ORDERINGS),
                   help="spatial-ordering axis for adaptive configs; "
                        "repeatable (default: morton; see docs/DATAPLANE.md)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for cache misses (default: 1)")
    p.add_argument("--cache-dir", default=".sweep-cache", metavar="DIR",
                   help="per-run result cache (default: .sweep-cache)")
    p.add_argument("--force", action="store_true",
                   help="ignore cached results and re-run every point")
    p.add_argument("--max-retries", type=int, default=0, metavar="N",
                   help="re-attempts per crashed point, with exponential "
                        "backoff (default: 0; see docs/RESILIENCE.md)")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="JSON fault plan to inject scripted failures "
                        "(repro.faults.FaultPlan; for resilience testing)")
    p.add_argument("--name", default="sweep", help="campaign name (BENCH_<name>.json)")
    p.add_argument("--bench-out", default=None, metavar="DIR",
                   help="write BENCH_<name>.json under DIR")
    _add_capture_flags(p, trace=False, profile=True)
    p.add_argument("--progress-every", type=float, default=10.0, metavar="SECONDS",
                   help="seconds between completed/total progress lines "
                        "(0 = every completion, negative = silent; default: 10)")
    _add_live_flags(p)

    p = sub.add_parser(
        "analyze",
        help="read a captured run: header, event counts, data-motion ledger, "
             "critical path, occupancy",
    )
    p.add_argument("path", metavar="TRACE|RUN-DIR",
                   help="Perfetto trace JSON (--trace-out), run-summary JSON "
                        "(--metrics-out), JSONL event log (--events-out), or a "
                        "directory holding any of them")
    p.add_argument("--buckets", type=int, default=20,
                   help="utilization-timeline buckets (default: 20)")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the machine-readable analysis document")

    p = sub.add_parser(
        "compare",
        help="regression sentinel: diff BENCH/run-summary documents",
    )
    p.add_argument("baseline",
                   help="baseline BENCH_*.json or run-summary JSON")
    p.add_argument("candidate",
                   help="candidate document compared against the baseline")
    p.add_argument("--threshold", action="append", default=None,
                   metavar="METRIC=REL[:DIRECTION]",
                   help="override a relative threshold, e.g. tflops=0.10 or "
                        "my_metric=0.05:higher; repeatable")
    p.add_argument("--fail-on-regress", action="store_true",
                   help="exit non-zero when any metric regresses beyond threshold")
    p.add_argument("--all-metrics", action="store_true",
                   help="print every compared metric, not just the deltas")
    p.add_argument("--report-out", default=None, metavar="PATH",
                   help="write the machine-readable verdict JSON")

    sub.add_parser("info", help="encoded GPU specifications")

    return parser


def _cmd_mle(args) -> int:
    from . import obs
    from .core import MPConfig
    from .geostats import SyntheticField, fit_mle
    from .geostats.covariance import Matern, SquaredExponential

    levels = args.accuracy or [1e-9]
    try:
        for level in levels:
            MPConfig(accuracy=level)
    except ValueError as exc:
        print(f"mle: {exc}", file=sys.stderr)
        return 2
    nugget = args.nugget
    if args.model == "2d-matern":
        field = SyntheticField(Matern(dim=2), (1.0, 0.1, 0.5), args.n, args.seed,
                               nugget or 0.0)
    elif args.model == "2d-sqexp":
        field = SyntheticField(SquaredExponential(dim=2), (1.0, 0.1), args.n,
                               args.seed, 0.01 if nugget is None else nugget)
    else:
        field = SyntheticField(SquaredExponential(dim=3), (1.0, 0.1), args.n,
                               args.seed, 0.01 if nugget is None else nugget)
    ds = field.sample()
    print(f"{field.model.name}: n={ds.n}, θ_true={field.theta}, nugget={field.nugget}")
    runs = [("exact", dict(exact=True))] if args.exact else []
    runs += [(f"{a:.0e}", dict(accuracy=a)) for a in levels]
    with contextlib.ExitStack() as stack:
        if args.events_out:
            log = stack.enter_context(obs.event_log(args.events_out))
            print(f"  events → {args.events_out} (run {log.run_id})")
        for label, kw in runs:
            res = fit_mle(ds, max_evals=200, xtol=1e-7, **kw)
            theta = ", ".join(f"{v:.4f}" for v in res.theta_hat)
            print(f"  {label:>8}: θ̂ = ({theta})  loglik {res.loglik:.2f}  "
                  f"[{res.n_evals} evals]")
    if args.metrics_out:
        manifest = obs.build_manifest(command="mle", config=vars(args), seed=args.seed)
        obs.write_run_summary(args.metrics_out, manifest=manifest)
        print(f"  metrics → {args.metrics_out}")
    return 0


def _cmd_maps(args) -> int:
    from .bench.apps import app_kernel_map, get_app
    from .core import MPConfig, build_comm_precision_map

    app = get_app(args.app)
    if args.accuracy is not None:
        from dataclasses import replace

        try:
            MPConfig(accuracy=args.accuracy)
        except ValueError as exc:
            print(f"maps: {exc}", file=sys.stderr)
            return 2
        app = replace(app, accuracy=args.accuracy)
    kmap = app_kernel_map(app, args.n, args.nb, samples_per_tile=32)
    cmap = build_comm_precision_map(kmap)
    print(f"{app.label}: n={args.n}, nb={args.nb} (NT={kmap.nt}), "
          f"u_req={app.accuracy:g}")
    fr = kmap.tile_fractions()
    print("tile fractions:", {p.name: f"{f * 100:.1f}%" for p, f in sorted(fr.items(), reverse=True)})
    print(f"STC on {cmap.stc_fraction() * 100:.1f}% of communications")
    if kmap.nt <= 32:
        print(kmap.render())
        print(cmap.render())
    return 0


@contextlib.contextmanager
def _capture(args):
    """Enter what the telemetry flags ask for around a run — the JSONL
    event log, the sampling profiler, the live plane — and yield the
    profiler (``None`` when not requested).  :func:`_write_capture`
    writes the documents once the run is over."""
    from . import obs

    run_id = getattr(args, "run_id", None)
    with contextlib.ExitStack() as stack:
        _enter_live(stack, args, run_id=run_id)
        if args.events_out:
            stack.enter_context(obs.event_log(args.events_out, run_id=run_id))
        profiler = None
        if args.profile_out:
            profiler = stack.enter_context(obs.SamplingProfiler())
        yield profiler


@contextlib.contextmanager
def _gc_cost():
    """Yield a dict that holds, once the block exits, what the cyclic
    garbage collector cost inside it: ``gc_seconds`` and
    ``gc_collections`` (collections per generation, 0/1/2)."""
    import gc

    cost = {"gc_seconds": 0.0, "gc_collections": [0, 0, 0]}
    started = 0.0

    def hook(phase, info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            cost["gc_seconds"] += time.perf_counter() - started
            cost["gc_collections"][info["generation"]] += 1

    gc.callbacks.append(hook)
    try:
        yield cost
    finally:
        gc.callbacks.remove(hook)


def _write_capture(args, profiler, *, command, stats, n_tasks) -> None:
    """The ``--profile-out`` / ``--metrics-out`` tail of :func:`_capture`:
    hottest frames + profile document, then the run summary."""
    from . import obs

    if profiler is None and not args.metrics_out:
        return
    manifest = obs.build_manifest(run_id=getattr(args, "run_id", None),
                                  command=command, config=vars(args))
    if profiler is not None:
        rate = (n_tasks / profiler.wall_seconds
                if profiler.wall_seconds > 0.0 else 0.0)
        print(profiler.render())
        doc = profiler.report(extra={"tasks_per_second": rate, "manifest": manifest})
        obs.write_profile(args.profile_out, doc)
        print(f"  profile → {args.profile_out} "
              f"({doc['n_samples']} samples, {rate:,.0f} tasks/s, "
              f"overhead {doc['overhead_fraction'] * 100.0:.2f}%)")
    if args.metrics_out:
        obs.write_run_summary(args.metrics_out, stats=stats, manifest=manifest)
        print(f"  metrics → {args.metrics_out}")


def _cmd_simulate(args) -> int:
    from . import obs
    from .sweep import RunSpec, price_run
    from .sweep.grid import AXES

    record_events = bool(args.trace_out)
    if args.stream and record_events:
        # the O(window) live-memory bound covers Task objects only; a
        # recorded Trace still accumulates O(n_tasks) events
        print("simulate: warning: --trace-out events void the "
              "O(window) memory bound of --stream — the event trace "
              "grows with every task (see docs/SCHEDULING.md)", file=sys.stderr)
    try:
        spec = RunSpec(**{axis: getattr(args, axis) for axis in AXES if hasattr(args, axis)})
        with _capture(args) as profiler, _gc_cost() as gc_cost:
            rep, d = price_run(spec, record_events=record_events, stream=args.stream)
    except ValueError as exc:
        # flags that do not fit together: a non-positive size or platform,
        # a negative host, a full-graph policy with --stream, a host tier
        # too small for one task
        print(f"simulate: {exc}", file=sys.stderr)
        return 2

    # host numbers that cost nothing to take: the bench floors and the
    # live-overhead gate read them out of the run summary's stats
    del d["plan_seconds"]
    wall = d.pop("sim_seconds")
    d.update(
        wall_seconds=wall,
        tasks_per_second=d["n_tasks"] / wall if wall > 0.0 else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
        peak_live_tasks=rep.peak_live_tasks,
        **gc_cost,
    )
    print(f"{spec.config} on {spec.n_nodes}x{spec.gpus_per_node}x{spec.gpu} "
          f"(n={spec.n}, nb={spec.nb}, {spec.strategy.upper()}, "
          f"policy {d['policy']}):")
    print(f"  makespan   {d['makespan_seconds']:.4f} s")
    print(f"  throughput {d['tflops']:.1f} Tflop/s")
    print(f"  energy     {d['joules'] / 1e3:.2f} kJ  {d['gflops_per_watt']:.1f} Gflops/W")
    print(f"  h2d        {d['h2d_bytes'] / 1e9:.2f} GB")
    print(f"  d2h        {d['d2h_bytes'] / 1e9:.2f} GB  nic {d['nic_bytes'] / 1e9:.2f} GB")
    print(f"  conversions {d['n_conversions']} "
          f"({d['conversion_seconds'] * 1e3:.1f} ms)")
    print(f"  tasks      {d['n_tasks']}  evictions {d['n_evictions']}")
    if d.get("n_host_evictions") or d.get("n_spills"):
        print(f"  host evictions {d['n_host_evictions']}  spills {d['n_spills']}  "
              f"disk r/w {d['disk_read_bytes'] / 1e9:.2f}/"
              f"{d['disk_write_bytes'] / 1e9:.2f} GB")
    print(f"  host       {wall:.2f} s wall  {d['tasks_per_second']:,.0f} tasks/s  "
          f"peak live {d['peak_live_tasks']} tasks  "
          f"peak rss {d['peak_rss_bytes'] / 1e6:,.0f} MB  "
          f"gc {d['gc_seconds']:.3f} s ({'/'.join(map(str, d['gc_collections']))} "
          "gen-0/1/2 collections)")

    if args.trace_out:
        obs.write_perfetto_trace(rep.trace.events, args.trace_out,
                                 metadata={"policy": rep.policy})
        print(f"  trace   → {args.trace_out}")
    _write_capture(args, profiler, command="simulate", stats=d,
                   n_tasks=d["n_tasks"])
    return 0


def _enter_live(stack, args, *, run_id=None) -> None:
    """Enter a live telemetry plane serving on ``--live-port`` and write
    its bound port to ``--live-port-file``.  A port file without a port
    is a usage error (exit 2): a poller waiting on it would hang."""
    port = getattr(args, "live_port", None)
    port_file = getattr(args, "live_port_file", None)
    if port is None:
        if port_file:
            print(f"{args.command}: --live-port-file needs --live-port "
                  "(no live plane runs without a port to write)", file=sys.stderr)
            raise SystemExit(2)
        return
    from .obs.live import live_plane

    plane = stack.enter_context(live_plane(port=port, run_id=run_id))
    print(f"live → {plane.url}", file=sys.stderr)
    if port_file:
        Path(port_file).write_text(f"{plane.port}\n", encoding="utf-8")


def _peak_rss_bytes() -> int:
    """Peak resident set of this process, in bytes (0 when unavailable).

    Linux: ``VmHWM`` of ``/proc/self/status`` — per address space, reset
    at ``exec``.  ``ru_maxrss`` (kilobytes on Linux, bytes on macOS) is
    inherited across ``fork``/``exec``, so a ``repro simulate`` child of
    a fat parent would report the *parent's* peak; it is the fallback
    elsewhere.  Either is monotonic over the process lifetime, so
    comparing ``simulate`` with and without ``--stream`` needs one
    process per run (as ``benchmarks/test_simulator_scale.py`` does).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def _cmd_sweep(args) -> int:
    from .faults import FaultPlan, RetryPolicy
    from .sweep import SweepGrid, run_sweep
    from .sweep.grid import AXES

    retry_policy = (RetryPolicy(max_retries=args.max_retries)
                    if args.max_retries > 0 else None)
    fault_plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None

    # each axis flag's dest is its RunSpec field; one never passed is None
    grid = SweepGrid.from_axes(name=args.name, **{axis: getattr(args, axis) for axis in AXES})
    try:
        grid.expand()  # every point is valid before the first one runs
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    with _capture(args) as profiler:
        result = run_sweep(
            grid, workers=args.workers, cache_dir=args.cache_dir, force=args.force,
            retry_policy=retry_policy, fault_plan=fault_plan,
            progress_seconds=(None if args.progress_every < 0
                              else args.progress_every),
        )
    print(result.table())
    print(f"cache: {result.n_cache_hits}/{result.n_runs} hits "
          f"({result.cache_hit_fraction * 100:.1f}%), dir {args.cache_dir}")
    print(f"resilience: failed {result.n_failed}/{result.n_runs}, "
          f"retries {result.total_retries}")
    if args.bench_out:
        path = result.write_bench_json(args.bench_out)
        print(f"  bench   → {path}")
    stats = result.summary_stats()
    _write_capture(args, profiler, command="sweep", stats=stats,
                   n_tasks=stats["planned_tasks"])
    return 0


def _cmd_analyze(args) -> int:
    from .obs import write_json
    from .obs.analysis import analyze_path, render_analysis

    if args.buckets < 1:
        print("analyze: --buckets must be positive", file=sys.stderr)
        return 2
    try:
        doc = analyze_path(args.path, n_buckets=args.buckets)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    source = doc.get("source") or {}
    print(f"== analysis ({source.get('trace') or source.get('path')}) ==")
    print(render_analysis(doc))
    mismatches = (doc.get("reconciliation") or {}).get("mismatches") or []
    if args.json_out:
        write_json(args.json_out, doc)
        print(f"  analysis → {args.json_out}")
    return 1 if mismatches else 0


def _cmd_compare(args) -> int:
    from .obs import write_json
    from .obs.regress import compare_files, parse_threshold_args

    for path in (args.baseline, args.candidate):
        if not Path(path).exists():
            print(f"compare: no such file: {path}", file=sys.stderr)
            return 2
    try:
        thresholds = parse_threshold_args(args.threshold)
        report = compare_files(args.baseline, args.candidate, thresholds=thresholds)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(report.table(all_metrics=args.all_metrics))
    if report.missing_in_candidate:
        print(f"  scopes missing in candidate: {', '.join(report.missing_in_candidate)}")
    if report.added_in_candidate:
        print(f"  scopes added in candidate: {', '.join(report.added_in_candidate)}")
    print()
    if args.report_out:
        write_json(args.report_out, report.to_dict())
        print(f"  verdict → {args.report_out}")
    if args.fail_on_regress and report.n_regressions:
        print(f"compare: {report.n_regressions} regression(s) beyond threshold",
              file=sys.stderr)
        return 1
    return 0


def _cmd_info(_args) -> int:
    from .perfmodel import GPU_BY_NAME

    for name, gpu in GPU_BY_NAME.items():
        print(f"{name}: TDP {gpu.tdp_watts:.0f} W, {gpu.memory_bytes / 1e9:.0f} GB @ "
              f"{gpu.memory_bandwidth / 1e9:.0f} GB/s HBM, host link "
              f"{gpu.host_link_bandwidth / 1e9:.0f} GB/s")
        for prec, peak in sorted(gpu.peak_flops.items(), reverse=True):
            print(f"    {prec.name:8} {peak / 1e12:7.1f} Tflop/s "
                  f"(sustained ×{gpu.sustained_fraction[prec]:.2f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "mle": _cmd_mle,
        "maps": _cmd_maps,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "info": _cmd_info,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
