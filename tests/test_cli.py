"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.gpu == "V100" and args.config == "FP64/FP16"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out and "H100" in out and "Tflop/s" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--n", "8192", "--nb", "1024"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "Tflop/s" in out

    def test_simulate_ttc(self, capsys):
        assert main(["simulate", "--n", "8192", "--nb", "1024",
                     "--strategy", "ttc", "--config", "FP32"]) == 0
        assert "TTC" in capsys.readouterr().out

    def test_maps(self, capsys):
        assert main(["maps", "--app", "2d-matern", "--n", "8192", "--nb", "1024"]) == 0
        out = capsys.readouterr().out
        assert "tile fractions" in out and "STC" in out

    def test_mle_small(self, capsys):
        assert main(["mle", "--model", "2d-matern", "--n", "64",
                     "--accuracy", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "θ̂" in out and "loglik" in out


class TestSimbench:
    """``simulate`` as the bench-floor producer: with or without
    ``--stream`` it writes a gate-able run summary carrying the host
    numbers (wall time, tasks/s, peak RSS, peak live tasks)."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.stream is False
        assert args.gpus_per_node == 1 and args.n_nodes == 1

    @pytest.mark.parametrize("mode", ["materialize", "stream"])
    def test_simbench_runs_and_writes_gateable_doc(self, mode, tmp_path, capsys):
        import json

        out = tmp_path / f"simulate-{mode}.json"
        assert main(["simulate", "--n", str(8 * 128), "--nb", "128",
                     *(["--stream"] if mode == "stream" else []),
                     "--metrics-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "makespan" in text and "tasks/s" in text
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.run_summary/1"
        # one verb: the config, not the command, tells the modes apart
        assert doc["manifest"]["command"] == "simulate"
        assert doc["manifest"]["config"]["stream"] is (mode == "stream")
        # n/nb ride in the manifest config
        assert doc["manifest"]["config"]["n"] == 8 * 128
        stats = doc["stats"]
        assert stats["n_tasks"] == 8 + 8 * 7 + 8 * 7 * 6 // 6
        assert stats["tasks_per_second"] > 0
        for key in ("makespan_seconds", "joules", "tflops", "h2d_bytes", "wall_seconds",
                    "peak_rss_bytes", "peak_live_tasks"):
            assert key in stats

    def test_modes_agree_on_makespan(self, tmp_path):
        import json

        docs = {}
        for mode in ("materialize", "stream"):
            out = tmp_path / f"{mode}.json"
            assert main(["simulate", "--n", str(10 * 128), "--nb", "128",
                         "--gpus", "2", "--nodes", "2",
                         *(["--stream"] if mode == "stream" else []),
                         "--metrics-out", str(out)]) == 0
            docs[mode] = json.loads(out.read_text(encoding="utf-8"))["stats"]
        for key in ("makespan_seconds", "joules"):
            assert docs["stream"][key] == docs["materialize"][key]
        # at nt=10 the default window (floor 4096) spans the whole DAG,
        # so live counts merely must not exceed the materialised count;
        # the strict < comparison runs at nt=96 in benchmarks/
        assert (docs["stream"]["peak_live_tasks"]
                <= docs["materialize"]["peak_live_tasks"])


class TestSimulateIsASweepPoint:
    """``simulate``'s flags are one ``RunSpec``, priced the way a sweep
    point is: its stats hold ``execute_spec``'s result for that spec, key
    for key, the two wall-clock timings aside."""

    @pytest.mark.parametrize("flags,fields", [
        *((["--policy", policy], {"policy": policy})
          for policy in ("panel-first", "fifo", "critical-path", "comm-aware-eft", "ooc-static")),
        (["--strategy", "ttc", "--config", "FP32"], {"strategy": "ttc", "config": "FP32"}),
        (["--gpu", "A100", "--gpus", "2", "--nodes", "3"],
         {"gpu": "A100", "gpus_per_node": 2, "n_nodes": 3}),
        (["--stream", "--gpu", "H100"], {"gpu": "H100"}),
        (["--config", "FP64", "--host-memory-gb", "0.01", "--policy", "ooc-static"],
         {"config": "FP64", "host_memory_gb": 0.01, "policy": "ooc-static"}),
    ], ids=["panel-first", "fifo", "critical-path", "comm-aware-eft", "ooc-static", "ttc",
            "multi-node", "stream", "out-of-core"])
    def test_stats_are_the_sweep_result(self, flags, fields, tmp_path):
        import json

        from repro.sweep import RunSpec, execute_spec

        out = tmp_path / "metrics.json"
        assert main(["simulate", "--n", "4096", "--nb", "512", *flags,
                     "--metrics-out", str(out)]) == 0
        stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
        want = execute_spec(RunSpec(**{"n": 4096, "nb": 512, "config": "FP64/FP16",
                                       **fields}).to_dict())
        for key in ("plan_seconds", "sim_seconds"):
            del want[key]
        assert {key: stats.get(key) for key in want} == want
        if "host_memory_gb" in fields:
            assert want["n_host_evictions"] > 0


class TestSimulateFlagCoherence:
    def test_stream_with_full_graph_policy_is_rejected(self, capsys):
        assert main(["simulate", "--n", "1024", "--nb", "128", "--stream",
                     "--policy", "critical-path"]) == 2
        assert "critical-path" in capsys.readouterr().err

    def test_stream_with_event_export_warns(self, tmp_path, capsys):
        assert main(["simulate", "--n", "1024", "--nb", "128", "--stream",
                     "--trace-out", str(tmp_path / "trace.json")]) == 0
        assert "void the O(window) memory bound" in capsys.readouterr().err
        assert main(["simulate", "--n", "1024", "--nb", "128", "--stream"]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--host-memory-gb", "-1"], "host_memory_gb must be non-negative, got -1.0"),
        (["--nb", "0"], "n and nb must be positive, got n=1024, nb=0"),
        (["--n", "0"], "n and nb must be positive, got n=0, nb=128"),
        (["--nodes", "0"], "gpus_per_node and n_nodes must be positive"),
        (["--gpus", "0"], "gpus_per_node and n_nodes must be positive"),
    ], ids=["host-memory-gb=-1", "nb=0", "n=0", "nodes=0", "gpus=0"])
    def test_negative_host_memory_is_a_usage_error(self, flags, message, capsys):
        """Every invalid run description is rejected once, by ``RunSpec``,
        before anything is priced: exit 2 and its message, no traceback."""
        argv = ["simulate", "--n", "1024", "--nb", "128", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"simulate: {message}"
        assert "makespan" not in captured.out

    @pytest.mark.parametrize("verb", ["simulate", "sweep"])
    def test_port_file_without_port_is_a_usage_error(self, verb, tmp_path, capsys):
        """A poller waits on ``--live-port-file``: without ``--live-port``
        no plane runs and the file would never appear."""
        port_file = tmp_path / "port"
        argv = [verb, "--n", "1024", "--nb", "128", "--live-port-file", str(port_file)]
        if verb == "sweep":
            argv += ["--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--live-port-file" in captured.err and "--live-port " in captured.err
        assert "makespan" not in captured.out and "cache:" not in captured.out
        assert not port_file.exists()

    def test_zero_host_memory_holds_nothing(self, tmp_path):
        """``--host-memory-gb 0`` is a host tier with no room, not an
        unbounded one: the same run as a one-byte host."""
        import json

        host = ("gc_collections", "gc_seconds", "peak_rss_bytes", "tasks_per_second", "wall_seconds")
        stats = []
        for gb in ("0", "1e-9"):
            out = tmp_path / f"{gb}.json"
            assert main(["simulate", "--n", "8192", "--nb", "1024", "--config", "FP64",
                         "--host-memory-gb", gb, "--metrics-out", str(out)]) == 0
            doc = json.loads(out.read_text(encoding="utf-8"))["stats"]
            stats.append({k: v for k, v in doc.items() if k not in host})
        assert stats[0] == stats[1]
        assert stats[0]["n_host_evictions"] == 71


class TestAnalyzeFlags:
    @pytest.mark.parametrize("buckets", ["0", "-3"])
    def test_non_positive_buckets_is_a_usage_error(self, buckets, tmp_path, capsys):
        """A utilization timeline needs at least one window: ``--buckets
        0`` used to exit 0 and silently print no utilization section."""
        assert main(["simulate", "--n", "1024", "--nb", "128",
                     "--trace-out", str(tmp_path / "trace.json")]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path), "--buckets", buckets]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "analyze: --buckets must be positive"
        assert "critical path" not in captured.out


class TestParserSurface:
    """Pins the CLI surface: the verb set and the verb×flag count, and
    that declaring the telemetry-output flags once changed none of them."""

    @staticmethod
    def _subparsers():
        import argparse

        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    @classmethod
    def _verbs(cls):
        return {
            name: {a.option_strings[-1]: a for a in sp._actions
                   if a.option_strings and a.dest != "help"}
            for name, sp in cls._subparsers().items()
        }

    def test_verb_set(self):
        assert set(self._verbs()) == {
            "mle", "maps", "simulate", "sweep", "info", "analyze", "compare",
        }

    def test_verb_flag_count(self):
        # every argument of every verb, positionals included
        assert sum(len([a for a in sp._actions if a.dest != "help"])
                   for sp in self._subparsers().values()) == 63

    def test_capture_flag_verbs_parse_as_before(self):
        """``mle``, ``simulate`` and ``sweep`` argument for argument against
        the dump taken before ``_add_capture_flags`` existed (order apart;
        ``simulate``'s entry was re-dumped minus its trace-as-CSV output
        flag, the one flag deleted since: nothing read that format, and
        again when its schedule-export flag's help lost ".npz";
        ``simulate`` and ``sweep`` were re-dumped minus
        the six entries of the deleted watchdog flags — its alert rules,
        its snapshot-bus interval and its two synthetic-stall flags: the
        live plane only reports; ``simulate``'s ``--metrics-out`` help
        lost "trace summary" when the summary's ``trace`` section went;
        ``simulate`` lost ``--lookahead`` (the window is always the default)
        and both verbs' ``--strategy`` the ``stc`` choice, which priced the
        same run as ``auto``; ``sweep``'s ``--gpus`` / ``--nodes`` store
        under their ``RunSpec`` field names; ``sweep`` gained the
        ``--host-memory-gb`` axis, ``simulate``'s flag of that name;
        ``simulate`` lost its schedule-export and schedule-replay flags:
        only each other read the file, and a run's ``commit_order``
        replays through ``simulate_replay`` in the process that ran it;
        ``simulate``'s ``--gpus`` / ``--nodes`` store under their
        ``RunSpec`` field names too, so its flags build a ``RunSpec``;
        both verbs' ``--live-port`` help lost ``/progress`` when the live
        plane became a ``/metrics`` + ``/healthz`` scrape server;
        ``sweep`` lost its second campaign document's flag when
        ``--metrics-out`` became the campaign's one document, and its
        ``--name`` / ``--metrics-out`` help changed with it)."""
        import json
        from pathlib import Path

        subparsers = self._subparsers()
        before = json.loads((Path(__file__).parent / "data" /
                             "parser_surface_pr15.json").read_text(encoding="utf-8"))
        for verb, expected in before.items():
            now = sorted((
                dict(flags=a.option_strings, dest=a.dest, nargs=a.nargs,
                     const=a.const, default=a.default,
                     type=getattr(a.type, "__name__", None),
                     choices=list(a.choices) if a.choices else None,
                     required=a.required, help=a.help, metavar=a.metavar,
                     action=type(a).__name__)
                for a in subparsers[verb]._actions if a.dest != "help"
            ), key=lambda d: d["dest"])
            assert now == expected, verb

    def test_stream_and_policy_are_parameters_of_simulate(self):
        sim = self._verbs()["simulate"]
        assert {"--policy", "--stream"} <= set(sim)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is a /proc field")
def test_peak_rss_is_this_process_not_its_parent(tmp_path):
    """``ru_maxrss`` survives fork/exec, so the child of a fat parent used
    to report the parent's peak; ``VmHWM`` restarts at exec."""
    import resource

    import numpy as np

    ballast = np.ones(128 * 2**20, dtype=np.uint8)  # touched, so resident
    parent_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert parent_peak > ballast.nbytes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "from repro.cli import _peak_rss_bytes as f; print(f())"
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    ).stdout
    assert 0 < int(out) < ballast.nbytes
