"""Tests of the benchmark itself, at ``--quick`` size (never a baseline).

Not collected by the repository's tier-1 run (``testpaths = ["tests"]``):

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: workloads whose operation is made of layer calls only, so that the
#: layer spans must account for the whole traced operation
FULLY_SPANNED = ("mle_adaptive", "mle_fp64_matern", "sim_materialized", "sim_ooc_replay")


def run_py(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / script), *args],
                          capture_output=True, text=True, cwd=cwd)


def run_quick(out_dir: Path, *args: str) -> subprocess.CompletedProcess:
    return run_py("run.py", "--quick", "--seconds", "0.3", "--out-dir", str(out_dir), *args)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("out")


@pytest.fixture(scope="module")
def result(out_dir) -> dict:
    """One complete quick run: every workload, timed and traced."""
    proc = run_quick(out_dir)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((out_dir / "result.json").read_text())


def test_result_has_every_metric_with_its_unit(result):
    assert result["correct"] and result["size"] == "quick"
    assert list(result["workloads"]) == WORKLOADS
    for name, entry in result["workloads"].items():
        timed, traced = entry["timed"], entry["traced"]
        assert timed["failed"] == traced["failed"] == 0, (name, timed["failures"], traced["failures"])
        for metric in SPEC["end_to_end"]:
            got = timed["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0 and got["n"] >= 3
            assert got["q1"] <= got["value"] <= got["q3"]
        assert list(traced["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert traced["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert timed["hygiene"]["blas_pins"]["OPENBLAS_NUM_THREADS"] == "1"
        assert not timed["hygiene"]["event_log_armed"] and timed["hygiene"]["gc_enabled"]


def test_layers_a_workload_never_enters_read_zero(result):
    layers = {w: e["traced"]["per_layer"] for w, e in result["workloads"].items()}
    assert layers["mle_fp64_matern"]["core.kernel_calls.GEMM-FP16"]["value"] == 0
    assert layers["mle_fp64_matern"]["precision.gemm_fp16_ms"]["value"] == 0
    assert layers["mle_adaptive"]["core.kernel_calls.GEMM-FP16"]["value"] > 0
    assert layers["sim_stream"]["geostats.cov_build_s"]["value"] == 0
    assert layers["mle_adaptive"]["runtime.simulate_s"]["value"] == 0
    assert layers["mle_fit_small"]["geostats.fit_evals"]["value"] >= 8


@pytest.mark.parametrize("workload", FULLY_SPANNED)
def test_spans_nest_and_layers_sum_to_the_operation(result, out_dir, workload):
    traced = result["workloads"][workload]["traced"]
    spans = json.loads((out_dir / traced["trace_file"]).read_text())["spans"]
    ops = [s for s in spans if s["name"] == "op"]
    assert len(ops) >= 3 and all(s["parent"] is None for s in ops)
    for s in spans:
        assert s["t0"] <= s["t1"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["t0"] <= s["t0"] and s["t1"] <= parent["t1"]
            assert parent["op_id"] == s["op_id"]
    for op in ops:
        inside = sum(s["t1"] - s["t0"] for s in spans
                     if s["op_id"] == op["op_id"] and s["name"] != "op")
        assert inside <= op["t1"] - op["t0"]
        assert inside >= 0.95 * (op["t1"] - op["t0"])
    assert traced["span_coverage"] >= 0.95


def test_driver_line_names_exactly_the_metrics_of_the_run(out_dir):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_quick(out_dir, "--workload", "sim_stream", "--seed", "5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
        assert all(sorted(m) == ["unit", "value"] for m in line["metrics"].values())


def test_compare_passes_identical_sets_and_flags_a_slower_op(result, tmp_path):
    base = copy.deepcopy(result)
    base["size"] = "full"  # compare.py refuses quick results
    op = base["workloads"]["sim_materialized"]["timed"]["end_to_end"]["op_s"]
    # millisecond operations of a quick run scatter widely; a verdict
    # other than "unresolved" needs quartiles that the shift clears
    op["q1"], op["q3"] = 0.99 * op["value"], 1.01 * op["value"]
    shift = 1.0 + 1.5 * next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_s")
    slower = copy.deepcopy(base)
    op = slower["workloads"]["sim_materialized"]["timed"]["end_to_end"]["op_s"]
    for key in ("value", "q1", "q3"):
        op[key] *= shift
    noisy = copy.deepcopy(slower)  # as slow, but its quartiles reach down into the base's
    noisy["workloads"]["sim_materialized"]["timed"]["end_to_end"]["op_s"]["q1"] /= shift
    changed = copy.deepcopy(base)
    changed["workloads"]["sim_ooc_replay"]["timed"]["pins"]["evictions"] += 1
    paths = {}
    for label, doc in (("quick", result), ("base", base), ("slower", slower), ("noisy", noisy),
                       ("changed", changed)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(doc))

    same = run_py("compare.py", str(paths["base"]), str(paths["base"]))
    assert same.returncode == 0 and "worse" not in same.stdout, same.stdout + same.stderr
    worse = run_py("compare.py", str(paths["base"]), str(paths["slower"]))
    assert worse.returncode == 1
    assert [ln for ln in worse.stdout.splitlines() if "worse" in ln][0].split()[:2] == \
        ["sim_materialized", "op_s"]
    unresolved = run_py("compare.py", str(paths["base"]), str(paths["noisy"]))
    assert unresolved.returncode == 0 and "unresolved" in unresolved.stdout
    faster = run_py("compare.py", str(paths["slower"]), str(paths["base"]))
    assert faster.returncode == 0 and "better" in faster.stdout
    counts = run_py("compare.py", str(paths["base"]), str(paths["changed"]))
    assert counts.returncode == 1 and "sim_ooc_replay (timed run) evictions" in counts.stdout
    assert run_py("compare.py", str(paths["quick"]), str(paths["quick"])).returncode == 2
    other_seed = copy.deepcopy(base)
    other_seed["seed"] = 1
    paths["base"].with_name("seed1.json").write_text(json.dumps(other_seed))
    assert run_py("compare.py", str(paths["base"]), str(tmp_path / "seed1.json")).returncode == 2


def test_perturbed_expected_makes_the_run_fail(out_dir, tmp_path):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    expected["quick"]["sim_stream"]["makespan_sim_s"] *= 1.0 + 1e-12
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(expected))
    proc = run_quick(out_dir, "--workload", "sim_stream", "--trace", "0",
                     "--expected", str(perturbed))
    assert proc.returncode == 1
    assert "FAILED: makespan_sim_s" in proc.stdout
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_py("run.py", "--workload", "sim_stream", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
