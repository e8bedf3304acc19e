"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mle``       fit a synthetic dataset at one or more accuracy levels
``maps``      print the kernel/communication precision maps for an app
``simulate``  price a mixed-precision Cholesky on a simulated platform —
              the one symbolic-run verb: the scheduling policy heap,
              ``--replay`` of an exported schedule and ``--stream``
              (lazy million-task emission) are three parameters of it;
              always records host wall time, tasks/sec and peak RSS
``sweep``     fan a grid of configurations across a process pool (cached);
              its ``--policy`` axis is the per-policy comparison
``info``      show the encoded GPU specifications (Table I)
``analyze``   read a captured run (trace, summary, event log or run dir):
              run header, event counts, data-motion ledger, conversion-site
              attribution, critical path, utilization
``compare``   regression sentinel: diff BENCH/run-summary documents with
              per-metric thresholds; ``--fail-on-regress`` gates CI
``watch``     poll a live run's ``/progress`` endpoint (``--live-port``)

Telemetry flags (see ``docs/OBSERVABILITY.md``): ``simulate`` takes
``--trace-out`` (Perfetto JSON with counter tracks), ``--metrics-out``
(metrics + manifest + trace summary), ``--events-out`` (JSONL) and
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

#: exit code of a run aborted by a watchdog ``:abort`` alert rule
EXIT_WATCHDOG_ABORT = 3


def _add_live_flags(p: argparse.ArgumentParser) -> None:
    """The live-telemetry-plane flags shared by long-running verbs."""
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /progress, /healthz on "
                        "127.0.0.1:PORT while the run is in flight "
                        "(0 = ephemeral port; see docs/OBSERVABILITY.md)")
    p.add_argument("--live-port-file", default=None, metavar="PATH",
                   help="write the bound live port to PATH (for pollers "
                        "when --live-port 0 picked an ephemeral port)")
    p.add_argument("--live-interval", type=float, default=1.0, metavar="SECONDS",
                   help="snapshot-bus capture interval (default: 1.0)")
    p.add_argument("--alert", action="append", default=None, metavar="RULE",
                   help="watchdog alert rule: stall=SECONDS, "
                        "rank-silent=SECONDS, METRIC<FLOOR, METRIC>CEILING, "
                        "each optionally suffixed :abort; repeatable "
                        "(implies the live plane even without --live-port)")


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
        "metrics": "write metrics + run manifest + trace summary as JSON",
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
    from .runtime.policies import POLICY_NAMES
    from .sweep.grid import KERNEL_CONFIGS

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
    # the run description every performance experiment of the paper
    # varies: GPU model × GPUs × nodes × n × nb × fixed config × strategy
    p.add_argument("--gpu", default="V100", choices=list(GPU_BY_NAME))
    p.add_argument("--gpus", type=int, default=1, help="GPUs per node")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--n", type=int, default=32768)
    p.add_argument("--nb", type=int, default=2048)
    p.add_argument("--config", default="FP64/FP16", choices=list(FIXED_CONFIGS))
    p.add_argument("--strategy", default="auto",
                   choices=[s.value for s in ConversionStrategy])
    p.add_argument("--host-memory-gb", type=float, default=256.0,
                   help="host DRAM capacity per node in GB; tiles evicted "
                        "beyond this spill to the simulated disk tier — "
                        "shrink it to surface eviction/spill traffic "
                        "(default: 256)")
    p.add_argument("--policy", default="panel-first", choices=list(POLICY_NAMES),
                   help="scheduling policy for the ready heap "
                        "(default: panel-first; see docs/SCHEDULING.md)")
    p.add_argument("--stream", action="store_true",
                   help="million-task mode: consume the k-major task "
                        "emission lazily instead of holding the DAG — same "
                        "task ids, same makespan bit for bit, O(NT²) live "
                        "memory (frontier-local policies only)")
    p.add_argument("--lookahead", type=int, default=None,
                   help="emission window for --stream "
                        "(default: max(4096, nt^2 + 4*nt))")
    p.add_argument("--schedule-out", default=None, metavar="PATH",
                   help="export the committed task order as a replayable "
                        "static schedule (JSON)")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="replay a schedule exported with --schedule-out "
                        "(by a run with or without --stream) instead of "
                        "running a policy (bit-identical, no ready-heap "
                        "work; not combinable with --stream)")
    _add_capture_flags(p, trace=True, profile=True)
    _add_live_flags(p)
    p.add_argument("--live-stall-after", type=int, default=None, metavar="TASKS",
                   help="(testing) freeze the hot loop once TASKS tasks are "
                        "done, so a watchdog stall rule can be exercised")
    p.add_argument("--live-stall-seconds", type=float, default=5.0, metavar="S",
                   help="(testing) how long the synthetic stall sleeps "
                        "(default: 5.0; needs --live-stall-after)")

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
    p.add_argument("--gpus", type=int, action="append", default=None,
                   help="GPUs-per-node axis; repeatable (default: 1)")
    p.add_argument("--nodes", type=int, action="append", default=None,
                   help="node-count axis; repeatable (default: 1)")
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
                   choices=["morton", "random", "hilbert"],
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
    p.add_argument("candidates", nargs="*",
                   help="candidate document(s) compared against the baseline")
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

    p = sub.add_parser(
        "watch",
        help="poll a live run's /progress endpoint and render its progress",
    )
    p.add_argument("url", metavar="URL",
                   help="the run's live endpoint: http://127.0.0.1:PORT, a "
                        "bare PORT, or a --live-port-file path")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="poll interval (default: 1.0)")
    p.add_argument("--once", action="store_true",
                   help="print a single snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON snapshots instead of progress lines")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="give up after SECONDS without a reachable endpoint "
                        "(default: keep trying until the run completes)")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="append every polled snapshot to PATH as JSONL")
    return parser


def _cmd_mle(args) -> int:
    from . import obs
    from .geostats import SyntheticField, fit_mle
    from .geostats.covariance import Matern, SquaredExponential

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
    levels = args.accuracy or [1e-9]
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
    from .core import build_comm_precision_map

    app = get_app(args.app)
    if args.accuracy is not None:
        from dataclasses import replace

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
    event log, the sampling profiler, the live plane — and yield
    ``(profiler, plane)``, either ``None`` when not requested.
    :func:`_write_capture` writes the documents once the run is over."""
    from . import obs

    run_id = getattr(args, "run_id", None)
    with contextlib.ExitStack() as stack:
        if args.events_out:
            stack.enter_context(obs.event_log(args.events_out, run_id=run_id))
        profiler = None
        if args.profile_out:
            profiler = stack.enter_context(obs.SamplingProfiler())
        yield profiler, _enter_live(stack, args, run_id=run_id)


def _write_capture(args, profiler, *, command, stats, n_tasks, trace=None) -> None:
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
        obs.write_run_summary(args.metrics_out, stats=stats, trace=trace,
                              manifest=manifest)
        print(f"  metrics → {args.metrics_out}")


def _cmd_simulate(args) -> int:
    from . import obs
    from .core import (
        ConversionStrategy,
        fixed_config_map,
        replay_cholesky,
        simulate_cholesky,
    )
    from .perfmodel import GPU_BY_NAME
    from .runtime import Platform, StaticSchedule

    if args.replay and args.stream:
        print("simulate: --replay walks a recorded order over the held task "
              "graph; it cannot be combined with --stream (a schedule "
              "exported from a --stream run replays without it)", file=sys.stderr)
        return 2
    platform = Platform.of_gpus(GPU_BY_NAME[args.gpu], args.gpus, args.nodes,
                                host_memory=args.host_memory_gb * 1e9)
    kmap = fixed_config_map(-(-args.n // args.nb), args.config)
    strategy = ConversionStrategy(args.strategy)
    # events are needed whenever a trace export was requested; a
    # schedule export wants them too so the trace hash rides along for
    # replay verification
    record_events = bool(args.trace_out or args.schedule_out)
    if args.stream and record_events:
        # the O(window) live-memory bound covers Task objects only; a
        # recorded Trace still accumulates O(n_tasks) events
        print("simulate: warning: --trace-out/--schedule-out void the "
              "O(window) memory bound of --stream — the event trace "
              "grows with every task (see docs/SCHEDULING.md)", file=sys.stderr)
    try:
        schedule = StaticSchedule.load(args.replay) if args.replay else None
    except (OSError, ValueError, KeyError) as exc:
        # exit 1 means "replay diverged"; an unreadable file is a usage error
        print(f"simulate: cannot read schedule {args.replay}: {exc}", file=sys.stderr)
        return 2
    with _capture(args) as (profiler, plane):
        if plane is not None and args.live_stall_after is not None:
            plane.configure_stall(args.live_stall_after, args.live_stall_seconds)
        t0 = time.perf_counter()
        try:
            if schedule is not None:
                rep = replay_cholesky(args.n, args.nb, kmap, platform,
                                      schedule, strategy=strategy,
                                      record_events=record_events)
            else:
                rep = simulate_cholesky(args.n, args.nb, kmap, platform,
                                        strategy=strategy,
                                        record_events=record_events,
                                        policy=args.policy,
                                        stream=args.stream, lookahead=args.lookahead)
        except ValueError as exc:
            # flags that do not fit together: a full-graph policy with
            # --stream, a schedule from another n/nb/platform
            print(f"simulate: {exc}", file=sys.stderr)
            return 2
        wall = time.perf_counter() - t0

    # host numbers that cost nothing to take: the bench floors and the
    # live-overhead gate read them out of the run summary's stats
    d = rep.stats.to_dict()
    d.update(
        wall_seconds=wall,
        tasks_per_second=d["n_tasks"] / wall if wall > 0.0 else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
        peak_live_tasks=rep.peak_live_tasks,
    )
    print(f"{args.config} on {args.nodes}x{args.gpus}x{args.gpu} "
          f"(n={args.n}, nb={args.nb}, {args.strategy.upper()}, "
          f"policy {rep.policy}):")
    print(f"  makespan   {d['makespan_seconds']:.4f} s")
    print(f"  throughput {d['tflops']:.1f} Tflop/s")
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
          f"peak live {rep.peak_live_tasks} tasks  "
          f"peak rss {d['peak_rss_bytes'] / 1e6:,.0f} MB")

    if args.schedule_out:
        StaticSchedule.from_report(rep, nb=args.nb, n=args.n, platform=platform).save(args.schedule_out)
        print(f"  schedule → {args.schedule_out} ({rep.stats.n_tasks} tasks)")
    if schedule is not None:
        mismatch = []
        if schedule.makespan and abs(schedule.makespan - rep.makespan) > 0.0:
            mismatch.append("makespan")
        if (schedule.trace_hash and record_events
                and schedule.trace_hash != rep.trace.content_hash()):
            mismatch.append("trace hash")
        if mismatch:
            print(f"simulate: replay diverged from exported schedule "
                  f"({', '.join(mismatch)})", file=sys.stderr)
            return 1
        print(f"  replay of {args.replay} verified "
              f"(policy {schedule.policy}, bit-identical)")

    if args.trace_out:
        # fault and failure obs events (if captured) ride along as instants
        obs_events = obs.read_events(args.events_out) if args.events_out else None
        obs.write_perfetto_trace(rep.trace.events, args.trace_out, counters=True,
                                 obs_events=obs_events,
                                 metadata={"policy": rep.policy})
        print(f"  trace   → {args.trace_out}")
    _write_capture(args, profiler, command="simulate", stats=d,
                   n_tasks=d["n_tasks"],
                   trace=rep.trace if record_events else None)
    return 0


def _enter_live(stack, args, *, run_id=None):
    """Enter a live telemetry plane when ``--live-port``/``--alert`` ask
    for one (``--alert`` alone implies a plane so the watchdog has a bus
    to ride); returns the plane or ``None``."""
    port = getattr(args, "live_port", None)
    alert_specs = getattr(args, "alert", None) or []
    if port is None and not alert_specs:
        return None
    from .obs.alerts import parse_alert_arg
    from .obs.live import live_plane

    rules = [parse_alert_arg(spec) for spec in alert_specs]
    plane = stack.enter_context(live_plane(
        port=port,
        interval=getattr(args, "live_interval", 1.0),
        rules=rules,
        run_id=run_id,
    ))
    if plane.url is not None:
        print(f"live → {plane.url}", file=sys.stderr)
    port_file = getattr(args, "live_port_file", None)
    if port_file and plane.port is not None:
        Path(port_file).write_text(f"{plane.port}\n", encoding="utf-8")
    return plane


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

    retry_policy = (RetryPolicy(max_retries=args.max_retries)
                    if args.max_retries > 0 else None)
    fault_plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None

    grid = SweepGrid.from_axes(
        n=args.n or [4096],
        nb=args.nb or [512],
        config=args.config or ["FP64"],
        strategy=args.strategy or ["auto"],
        gpu=args.gpu or ["V100"],
        gpus_per_node=args.gpus or [1],
        n_nodes=args.nodes or [1],
        app=args.app or ["2d-matern"],
        accuracy=args.accuracy or [None],
        seed=args.seed or [0],
        policy=args.policy or ["panel-first"],
        ordering=args.ordering or ["morton"],
        name=args.name,
    )
    with _capture(args) as (profiler, _plane):
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

    for path in [args.baseline, *args.candidates]:
        if not Path(path).exists():
            print(f"compare: no such file: {path}", file=sys.stderr)
            return 2
    try:
        thresholds = parse_threshold_args(args.threshold)
        if not args.candidates:
            raise ValueError("need at least one candidate document")
        reports = []
        for candidate in args.candidates:
            try:
                reports.append(compare_files(args.baseline, candidate,
                                             thresholds=thresholds))
            except ValueError as exc:
                raise ValueError(f"{candidate}: {exc}") from None
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.table(all_metrics=args.all_metrics))
        if report.missing_in_candidate:
            print(f"  scopes missing in candidate: {', '.join(report.missing_in_candidate)}")
        if report.added_in_candidate:
            print(f"  scopes added in candidate: {', '.join(report.added_in_candidate)}")
        print()
    if args.report_out:
        # one report as is, several under ``…regress/1+multi``
        payload = (reports[0].to_dict() if len(reports) == 1
                   else {"schema": "repro.obs.regress/1+multi",
                         "reports": [r.to_dict() for r in reports]})
        write_json(args.report_out, payload)
        print(f"  verdict → {args.report_out}")
    n_regressions = sum(r.n_regressions for r in reports)
    if args.fail_on_regress and n_regressions:
        print(f"compare: {n_regressions} regression(s) beyond threshold",
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


def _watch_base_url(target: str) -> str:
    """Normalise a watch target: URL, ``host:port``, bare port, or a
    ``--live-port-file`` path all resolve to ``http://host:port``."""
    target = target.strip()
    if target.isdigit():
        return f"http://127.0.0.1:{target}"
    if "://" not in target:
        path = Path(target)
        if path.exists():
            port = path.read_text(encoding="utf-8").strip()
            return f"http://127.0.0.1:{port}"
        target = f"http://{target}"
    return target.rstrip("/")


def _cmd_watch(args) -> int:
    import json
    import urllib.error
    import urllib.request

    from .obs.live import render_progress_line

    url = _watch_base_url(args.url)
    if not url.endswith("/progress"):
        url += "/progress"

    out_fh = open(args.json_out, "a", encoding="utf-8") if args.json_out else None
    tty = sys.stdout.isatty() and not args.json
    deadline = (time.monotonic() + args.timeout) if args.timeout else None
    seen_ok = False
    last_len = 0

    def endline() -> None:
        if tty and last_len:
            print()

    try:
        while True:
            snap = None
            try:
                with urllib.request.urlopen(url, timeout=10) as resp:
                    snap = json.loads(resp.read())
            except (urllib.error.URLError, OSError, ValueError, json.JSONDecodeError):
                snap = None
            if snap is not None:
                seen_ok = True
                if args.timeout:
                    deadline = time.monotonic() + args.timeout
                if out_fh is not None:
                    out_fh.write(json.dumps(snap, sort_keys=True) + "\n")
                    out_fh.flush()
                if args.json:
                    print(json.dumps(snap, sort_keys=True))
                else:
                    line = render_progress_line(snap)
                    if tty and not args.once:
                        pad = max(0, last_len - len(line))
                        last_len = len(line)
                        print("\r" + line + " " * pad, end="", flush=True)
                    else:
                        print(line)
                if args.once:
                    return 0
                if snap.get("complete"):
                    endline()
                    return 0
            else:
                if args.once:
                    print(f"watch: endpoint unreachable: {url}", file=sys.stderr)
                    return 1
                if seen_ok:
                    # the run's process went away: treat as run over
                    endline()
                    print(f"watch: {url} gone — run ended", file=sys.stderr)
                    return 0
            if deadline is not None and time.monotonic() > deadline:
                endline()
                print(f"watch: no response from {url} within "
                      f"{args.timeout:g} s", file=sys.stderr)
                return 1
            time.sleep(args.interval)
    except KeyboardInterrupt:
        endline()
        return 0
    finally:
        if out_fh is not None:
            out_fh.close()


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
        "watch": _cmd_watch,
    }[args.command]
    from .obs.alerts import WatchdogAbort

    try:
        return handler(args)
    except WatchdogAbort as exc:
        print(f"{args.command}: aborted by watchdog: {exc}", file=sys.stderr)
        return EXIT_WATCHDOG_ABORT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
