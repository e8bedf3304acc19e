"""The seven workloads: inputs from a seed, one operation, its output
checks, and the same operation with a span around every layer call.

Each class says in ``why`` what it stresses.  An operation returns its
*pins* — outputs that must repeat exactly for a seed (a few floats carry
a tolerance, ``pin_rtol``).  Sizes are chosen so one operation takes
0.4–0.8 s: the driver's budget gives a run ~20 s in all, and a steady
median needs a dozen samples.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.bench.apps import app_kernel_map
from repro.core import cholesky as core_cholesky
from repro.core.cholesky import logdet_from_factor, mp_cholesky, solve_with_factor
from repro.core.config import MPConfig
from repro.core.conversion import build_comm_precision_map
from repro.core.dag_cholesky import build_cholesky_dag, stream_cholesky_tasks
from repro.core.precision_map import build_precision_map
from repro.core.solver import default_stream_lookahead, simulate_cholesky
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.geostats.likelihood import log_likelihood
from repro.geostats.mle import fit_mle
from repro.perfmodel.gpus import V100, NodeSpec
from repro.precision import gemm as precision_gemm
from repro.precision.formats import Precision
from repro.runtime.executor import execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.runtime.platform import Platform
from repro.runtime.policies import resolve_policy
from repro.runtime.simulator import simulate, simulate_replay
from repro.tiles import kernels as tk
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix

from harness import NullTracer, Tracer, median, timed
from hostref import ref_kernel, speed_factor

#: ``quick`` exists for perfbench/tests only and is never a baseline
SIZES = {
    "full": {"mle": (1024, 64), "matern": (1600, 128), "fit": (400, 50, 20),
             "sim_nt": 40, "ooc_tiles": (20, 125)},
    "quick": {"mle": (256, 32), "matern": (256, 64), "fit": (100, 25, 8),
              "sim_nt": 12, "ooc_tiles": (8, 40)},
}

#: values that went through emulated fp16/fp32 rounding are pinned less
#: tightly than pure-FP64 ones: another CPU's BLAS kernels can flip a
#: rounding to the fp16 grid
RTOL_FP64 = 1e-9
RTOL_EMULATED = 1e-6

#: kernel-call counter → the probe that prices one such call
KERNEL_PROBE = {
    "POTRF-FP64": "tiles.potrf_ms",
    "TRSM-FP64": "tiles.trsm_fp64_ms",
    "TRSM-FP32": "tiles.trsm_fp32_ms",
    "SYRK-FP64": "tiles.syrk_ms",
    "GEMM-FP64": "precision.gemm_fp64_ms",
    "GEMM-FP32": "precision.gemm_fp32_ms",
    "GEMM-FP16_32": "precision.gemm_fp16_32_ms",
    "GEMM-FP16": "precision.gemm_fp16_ms",
}

#: every probe: the kernels above, one tile-storage round trip, and the
#: two quantisations the factorization spends its casts on
PROBES = (*KERNEL_PROBE.values(), "tiles.get_set_ms",
          "precision.quantize_fp32_ms", "precision.quantize_fp16_ms")
FP16_FAMILY = (Precision.FP16, Precision.FP16_32)

NULL_TRACER = NullTracer()


def scaled(fn):
    """``(result, reference-speed seconds)`` of one call, the reference
    kernel timed on both sides of it."""
    r0 = ref_kernel()
    out, wall = timed(fn)
    return out, wall * speed_factor(r0, ref_kernel())


def _stopwatch(fn, key_of, acc: dict):
    """``fn`` with its calls counted and timed into ``acc[key_of(*args)]``
    as ``[calls, seconds]``; a key of None is not recorded."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        key = key_of(*args, **kwargs)
        if key is not None:
            cell = acc.setdefault(key, [0, 0.0])
            cell[0] += 1
            cell[1] += dt
        return out
    return wrapper


def _quantize_key(x, precision):
    if precision == Precision.FP32:
        return "precision.quantize_fp32_ms"
    return "precision.quantize_fp16_ms" if precision in FP16_FAMILY else None


def kernel_profile(factorize) -> tuple[dict[str, float], float]:
    """One factorization with a stopwatch around every tile kernel,
    quantisation and tile-storage access it makes.

    Returns reference-speed ms per call by probe name, and the share of
    the factorization spent inside the four tile kernels.  The kernels
    are priced inside the factorization because their cost depends on
    their operands: NumPy casts near-zero values to fp16 on a slow
    subnormal path, so random data, or tiles taken from another stage of
    the factorization, under- or over-report them several-fold.  The
    program is patched from here for this one call only; nothing under
    ``src/`` knows.
    """
    acc: dict[str, list] = {}
    watches = [
        (tk, "potrf", lambda c: "tiles.potrf_ms"),
        (tk, "trsm", lambda l, c, precision=Precision.FP64:
            f"tiles.trsm_{tk.trsm_execution_precision(precision).name.lower()}_ms"),
        (tk, "syrk", lambda a, c, precision=Precision.FP64: "tiles.syrk_ms"),
        (tk, "gemm", lambda a, b, c, precision=Precision.FP64:
            f"precision.gemm_{precision.name.lower()}_ms"),
        (TiledSymmetricMatrix, "get", lambda *a, **kw: "get"),
        (TiledSymmetricMatrix, "set", lambda *a, **kw: "set"),
        # payload rounding in the factorization, operand rounding in SYRK and GEMM
        *[(module, "quantize", _quantize_key) for module in (core_cholesky, tk, precision_gemm)],
    ]
    originals = [getattr(owner, name) for owner, name, _key_of in watches]
    try:
        for (owner, name, key_of), fn in zip(watches, originals):
            setattr(owner, name, _stopwatch(fn, key_of, acc))
        r0 = ref_kernel()
        _result, wall = timed(factorize)
        scale = speed_factor(r0, ref_kernel())
    finally:
        for (owner, name, _key_of), fn in zip(watches, originals):
            setattr(owner, name, fn)
    ms = {key: 1e3 * scale * seconds / calls for key, (calls, seconds) in acc.items()}
    ms["tiles.get_set_ms"] = ms.pop("get") + ms.pop("set")
    in_kernels = sum(acc[key][1] for key in set(KERNEL_PROBE.values()) & acc.keys())
    return ms, in_kernels / wall


def cholesky_layer_metrics(factorize, result, chol_s: float) -> dict[str, float]:
    """Kernel probes, exact kernel-call counts, and the split of the
    factorization's ``chol_s`` into its kernels and the loop around them
    (storage get/set casts, payload quantisation, Python).  ``factorize``
    repeats the factorization that gave ``result``."""
    profiles = [kernel_profile(factorize) for _ in range(3)]
    share = median(share for _ms, share in profiles)
    # a kernel the workload never calls reads 0
    probes = {name: median(ms.get(name, 0.0) for ms, _share in profiles) for name in PROBES}
    counts = {f"{kind}-{prec.name}": n for (kind, prec), n in result.kernel_counts.items()}
    fractions = result.kernel_map.tile_fractions()
    return {
        **probes,
        **{f"core.kernel_calls.{k}": counts.get(k, 0) for k in KERNEL_PROBE},
        "precision.lowprec_tile_frac": sum(fractions.get(p, 0.0) for p in FP16_FAMILY),
        "core.kernel_est_s": share * chol_s,
        "core.tile_loop_overhead_s": (1.0 - share) * chol_s,
    }


class Workload:
    """One workload instance for one seed and size."""

    name = ""
    why = ""
    #: relative tolerance of float pins; pins not named here are exact
    pin_rtol: dict[str, float] = {}

    def __init__(self, seed: int, size: str, out_dir: Path) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir

    def setup(self) -> None:
        """Generate the inputs from the seed (part of ``setup_s``)."""
        raise NotImplementedError

    def traced_op(self, tr) -> dict:
        """One operation, a span around each call into a layer; returns
        the operation's pins."""
        raise NotImplementedError

    def op(self) -> dict:
        """One operation as a user runs it."""
        return self.traced_op(NULL_TRACER)

    def check(self, pins: dict) -> list[str]:
        """Cheap per-operation output checks; returns failure messages."""
        return []

    def verify(self) -> list[str]:
        """Cross-checks against an independent path, run once after timing."""
        return []

    def layer_metrics(self, op_s: float, layers: dict[str, float], pins: dict) -> dict[str, float]:
        """Probes and derived per-layer metrics.  ``op_s`` is the untraced
        operation, ``layers`` the self time of each span name (both
        reference-speed medians), ``pins`` the last traced operation's."""
        return {}

    def event_log_overhead_frac(self) -> float:
        """Cost of an armed ``obs.event_log`` sink: armed ÷ unarmed − 1,
        pair by pair (neighbours in time share the host's speed)."""
        path = self.out_dir / f"events-{self.name}.jsonl"
        ratios = []
        for _ in range(3):
            with obs.event_log(path):
                armed_s = scaled(self.op)[1]
            ratios.append(armed_s / scaled(self.op)[1])
        path.unlink(missing_ok=True)
        return median(ratios) - 1.0


# -- MLE ---------------------------------------------------------------------


class _MleEval(Workload):
    """One ``log_likelihood`` at θ_true; subclasses pick field and config."""

    def op(self):
        return {"loglik": log_likelihood(self.ds, self.ds.theta_true, self.cfg).value}

    def check(self, pins):
        return [] if math.isfinite(pins["loglik"]) else ["infeasible likelihood"]

    def _covariance(self):
        ds = self.ds
        return build_tiled_covariance(ds.locations, ds.model, ds.theta_true,
                                      min(self.cfg.tile_size, ds.n), nugget=ds.nugget)

    def traced_op(self, tr):
        # log_likelihood's exact call sequence; the worker asserts that
        # the value equals the untraced call's
        ds, cfg = self.ds, self.cfg
        with tr.span("geostats.cov_build"):
            cov = self._covariance()
        with tr.span("tiles.tile_norms"):
            norms = tile_norms(cov)
        with tr.span("core.plan"):
            kmap = build_precision_map(norms, cfg.accuracy, cfg.formats)
            cmap = build_comm_precision_map(kmap)
        with tr.span("core.mp_cholesky"):
            self.result = mp_cholesky(cov, kmap, strategy=cfg.strategy, comm_map=cmap,
                                      overwrite=True)
        with tr.span("core.solve"):
            logdet = logdet_from_factor(self.result.factor)
            x = solve_with_factor(self.result.factor, ds.z)
        quad = float(ds.z @ x)
        return {"loglik": -0.5 * ds.n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad}

    def layer_metrics(self, op_s, layers, pins):
        res, cov = self.result, self._covariance()
        return {
            **cholesky_layer_metrics(
                lambda: mp_cholesky(cov, res.kernel_map, strategy=res.strategy,
                                    comm_map=res.comm_map),
                res, layers["core.mp_cholesky"]),
            "geostats.eval_residual_s": op_s - sum(layers.values()),
            "geostats.infeasible_evals": int(not math.isfinite(pins["loglik"])),
        }


class MleAdaptive(_MleEval):
    name = "mle_adaptive"
    why = ("adaptive 2D-sqexp evaluation, ~70 % of tiles FP16/FP16_32: core.mp_cholesky "
           "and the precision emulation do nearly all the work, geostats ~3 %")
    pin_rtol = {"loglik": RTOL_EMULATED}

    def setup(self):
        n, nb = self.size["mle"]
        self.ds = SyntheticField.sqexp_2d(n, 1.0, 0.03, seed=self.seed, nugget=0.01).sample()
        self.cfg = MPConfig(accuracy=1e-4, tile_size=nb)

    def verify(self):
        ds = self.ds
        exact = log_likelihood(ds, ds.theta_true, MPConfig.fp64_only(self.cfg.tile_size)).value
        mixed = self.op()["loglik"]
        rel = abs(mixed - exact) / abs(exact)
        return [] if rel <= 2e-3 else [f"adaptive loglik {mixed!r} is {rel:.2e} from FP64 {exact!r}"]


class MleFp64Matern(_MleEval):
    name = "mle_fp64_matern"
    why = ("FP64-only Matern evaluation: emulation bypassed, the Bessel-K covariance build "
           "dominates; a precision-layer change must show no movement here")
    pin_rtol = {"loglik": RTOL_FP64}

    def setup(self):
        n, nb = self.size["matern"]
        self.ds = SyntheticField.matern_2d(n, 1.0, 0.03, 1.0, seed=self.seed).sample()
        self.cfg = MPConfig.fp64_only(nb)


class MleFitSmall(_MleEval):
    name = "mle_fit_small"
    why = ("a short fit_mle on many tiny tiles: per-call Python, planning and optimizer "
           "overhead dominate, so a large-tile gain bought with per-call cost shows as a loss")
    pin_rtol = {"loglik": RTOL_EMULATED}

    def setup(self):
        n, nb, self.max_evals = self.size["fit"]
        self.ds = SyntheticField.matern_2d(n, 1.0, 0.1, 0.5, seed=self.seed).sample()
        self.cfg = MPConfig(accuracy=1e-9, tile_size=nb)

    def op(self):
        res = fit_mle(self.ds, accuracy=self.cfg.accuracy, tile_size=self.cfg.tile_size,
                      max_evals=self.max_evals, restarts=0)
        return {"fit_evals": res.n_evals, "loglik": res.loglik}

    def traced_op(self, tr):
        # fit_mle's own evaluations cannot be spanned from outside it
        return self.op()

    def check(self, pins):
        fails = super().check(pins)
        # Nelder–Mead checks its budget once per iteration, so it may
        # overshoot by at most one simplex (dim + 1 evaluations)
        if not self.max_evals <= pins["fit_evals"] <= self.max_evals + 4:
            fails.append(f"{pins['fit_evals']} evaluations for max_evals={self.max_evals}")
        return fails

    def layer_metrics(self, op_s, layers, pins):
        ds, evals = self.ds, pins["fit_evals"]
        # one evaluation at θ_true, probed directly and replayed with
        # spans; its layer times are scaled to the fit's evaluation count
        tr = Tracer()
        r0 = ref_kernel()
        direct = [timed(lambda: log_likelihood(ds, ds.theta_true, self.cfg)) for _ in range(20)]
        for i in range(5):
            tr.op_id = i
            super().traced_op(tr)
        scale = speed_factor(r0, ref_kernel())
        eval_s = median(wall for _ev, wall in direct) * scale
        replays = [tr.self_times(i) for i in range(5)]
        return {
            "geostats.fit_evals": evals,
            "geostats.fit_eval_ms": 1e3 * eval_s,
            "geostats.fit_overhead_s": op_s - evals * eval_s,
            "geostats.infeasible_evals": sum(not ev.feasible for ev, _wall in direct),
            **{f"{name}_s": evals * scale * median(r[name] for r in replays)
               for name in replays[0]},
            "obs.event_log_overhead_frac": self.event_log_overhead_frac(),
        }


# -- numeric runtime ---------------------------------------------------------


class NumericRuntime(Workload):
    name = "numeric_runtime"
    why = ("the mle_adaptive tile kernels driven through the task graph, sequential then "
           "2 threads: the executor-consolidation guard, the only program-level threads")
    pin_rtol = {"logdet": RTOL_EMULATED}

    def setup(self):
        n, nb = self.size["mle"]
        ds = SyntheticField.sqexp_2d(n, 1.0, 0.03, seed=self.seed, nugget=0.01).sample()
        self.mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, nb,
                                          nugget=ds.nugget)
        self.kmap = build_precision_map(tile_norms(self.mat), 1e-4, MPConfig().formats)
        self.cmap = build_comm_precision_map(self.kmap)

    def traced_op(self, tr):
        with tr.span("core.dag_build"):
            dag = build_cholesky_dag(self.mat.n, self.mat.nb, self.kmap, comm_map=self.cmap)
        with tr.span("runtime.execute_numeric"):
            self.seq = execute_numeric(dag.graph, self.mat)
        with tr.span("runtime.execute_parallel"):
            self.par = execute_numeric_parallel(dag.graph, self.mat, n_threads=2)
        return {"tasks": len(dag.graph), "logdet": logdet_from_factor(self.seq)}

    def _reference(self):
        return mp_cholesky(self.mat, self.kmap, comm_map=self.cmap)

    def verify(self):
        ref = self._reference().factor
        fails = []
        for label, fac in (("execute_numeric", self.seq), ("execute_numeric_parallel", self.par)):
            bad = [t for t in ref.lower_indices() if not np.array_equal(fac.get(*t), ref.get(*t))]
            if bad:
                fails.append(f"{label}: {len(bad)} tiles differ from mp_cholesky, first {bad[0]}")
        return fails

    def layer_metrics(self, op_s, layers, pins):
        runs = [scaled(self._reference) for _ in range(3)]
        chol_s = median(t for _res, t in runs)
        seq_s, par_s = layers["runtime.execute_numeric"], layers["runtime.execute_parallel"]
        return {
            **cholesky_layer_metrics(self._reference, runs[0][0], chol_s),
            "core.mp_cholesky_s": chol_s,
            "core.dag_tasks_per_s": pins["tasks"] / layers["core.dag_build"],
            "runtime.tasks": pins["tasks"],
            "runtime.parallel_speedup": seq_s / par_s,
            "runtime.executor_overhead_frac": seq_s / chol_s - 1.0,
        }


# -- symbolic simulate -------------------------------------------------------


def sim_pins(rep) -> dict:
    """The exact *simulated* statistics of a run — outputs, never performance."""
    d = rep.stats.to_dict()
    return {
        "tasks": d["n_tasks"],
        "peak_live_tasks": rep.peak_live_tasks,
        "evictions": d["n_evictions"],
        "host_evictions": d["n_host_evictions"],
        "spills": d["n_spills"],
        "conversions": d["n_conversions"],
        "h2d_bytes": d["h2d_bytes"],
        "d2h_bytes": d["d2h_bytes"],
        "nic_bytes": d["nic_bytes"],
        "makespan_sim_s": rep.makespan,
    }


class _Sim(Workload):
    """NT × NT tiles of 512², the 2D-sqexp kernel map, 2 nodes × 2 V100."""

    nb = 512

    def setup(self):
        self.n = self.size["sim_nt"] * self.nb
        self.kmap, self.kernel_map_s = scaled(lambda: app_kernel_map(
            "2d-sqexp", self.n, self.nb, samples_per_tile=16, seed=self.seed))
        self.platform = Platform(NodeSpec("perfbench", V100, 2, 256e9, 25e9, 1.5e-6), n_nodes=2)

    def _build(self):
        return build_cholesky_dag(self.n, self.nb, self.kmap, grid=self.platform.process_grid())

    def layer_metrics(self, op_s, layers, pins):
        return {"bench.kernel_map_s": self.kernel_map_s,
                **{f"runtime.{k}": v for k, v in pins.items()}}


class SimMaterialized(_Sim):
    name = "sim_materialized"
    why = ("build the full Cholesky DAG then simulate it on the ready heap: DAG build is "
           "most of the time, the heap loop the rest")

    def traced_op(self, tr):
        with tr.span("core.dag_build"):
            self.graph = self._build().graph
        with tr.span("runtime.simulate"):
            rep = simulate(self.graph, self.platform, self.nb, record_events=False)
        return sim_pins(rep)

    def check(self, pins):
        return [] if pins["peak_live_tasks"] == pins["tasks"] else ["materialised run retired tasks"]

    def layer_metrics(self, op_s, layers, pins):
        def simulate_s(record: bool) -> float:
            return scaled(lambda: simulate(self.graph, self.platform, self.nb,
                                           record_events=record))[1]

        return {
            **super().layer_metrics(op_s, layers, pins),
            "core.dag_tasks_per_s": pins["tasks"] / layers["core.dag_build"],
            "runtime.host_us_per_task": 1e6 * layers["runtime.simulate"] / pins["tasks"],
            # pair by pair: the difference is a tenth of either term
            "runtime.trace_record_s": median(simulate_s(True) - simulate_s(False)
                                             for _ in range(3)),
            "obs.event_log_overhead_frac": self.event_log_overhead_frac(),
        }


class SimStream(_Sim):
    name = "sim_stream"
    why = ("the same engine fed by lazy k-major emission: no materialised DAG, a bounded "
           "window of live tasks, and the same makespan bit for bit")

    def traced_op(self, tr):
        # emission and scheduling interleave inside simulate_stream: one span
        rep = simulate_cholesky(self.n, self.nb, self.kmap, self.platform,
                                record_events=False, stream=True)
        return sim_pins(rep)

    def check(self, pins):
        window = default_stream_lookahead(self.size["sim_nt"])
        return [] if pins["peak_live_tasks"] <= window else [f"more than {window} tasks live"]

    def verify(self):
        streamed = self.op()["makespan_sim_s"]
        rep = simulate(self._build().graph, self.platform, self.nb, record_events=False)
        if rep.makespan == streamed:
            return []
        return [f"streamed makespan {streamed!r} != materialised {rep.makespan!r}"]

    def layer_metrics(self, op_s, layers, pins):
        grid = self.platform.process_grid()

        def emit():
            return sum(1 for _ in stream_cholesky_tasks(self.n, self.nb, self.kmap, grid=grid))

        emit_s = median(scaled(emit)[1] for _ in range(3))
        return {
            **super().layer_metrics(op_s, layers, pins),
            "core.stream_emit_s": emit_s,
            "runtime.stream_sched_s": op_s - emit_s,
        }


class SimOocReplay(_Sim):
    name = "sim_ooc_replay"
    why = ("pre-built graph on GPUs and hosts too small for it, then a heap-free replay: "
           "eviction, staging and spill cost per task, with DAG build out of the timed path")

    def setup(self):
        super().setup()
        gpu_tiles, host_tiles = self.size["ooc_tiles"]
        tile_bytes = self.nb * self.nb * 8
        gpu = dataclasses.replace(V100, memory_bytes=gpu_tiles * tile_bytes)
        self.platform = Platform(
            NodeSpec("perfbench-tight", gpu, 2, host_tiles * tile_bytes, 25e9, 1.5e-6), n_nodes=2)
        self.graph = self._build().graph

    def traced_op(self, tr):
        with tr.span("runtime.simulate_ooc"):
            rep = simulate(self.graph, self.platform, self.nb, record_events=False,
                           policy="ooc-static")
        with tr.span("runtime.replay"):
            again = simulate_replay(self.graph, self.platform, self.nb, rep.commit_order,
                                    record_events=False, source_policy="ooc-static")
        self.replay_matches = (again.makespan == rep.makespan
                               and again.stats.to_dict() == rep.stats.to_dict())
        return sim_pins(rep)

    def check(self, pins):
        fails = [] if self.replay_matches else ["replay differs from the run it replays"]
        if not (pins["evictions"] and pins["host_evictions"] and pins["spills"]):
            fails.append("platform is not tight: no eviction, host eviction or spill")
        return fails

    def layer_metrics(self, op_s, layers, pins):
        policy = resolve_policy("ooc-static")
        _, prepare_s = scaled(lambda: policy.prepare(self.graph, self.platform, self.nb))
        return {**super().layer_metrics(op_s, layers, pins), "runtime.policy_prepare_s": prepare_s}


WORKLOADS = {cls.name: cls for cls in (
    MleAdaptive, MleFp64Matern, MleFitSmall, NumericRuntime,
    SimMaterialized, SimStream, SimOocReplay,
)}
