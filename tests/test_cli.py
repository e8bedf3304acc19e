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
        assert args.stream is False and args.lookahead is None
        assert args.gpus == 1 and args.nodes == 1

    @pytest.mark.parametrize("mode", ["materialize", "stream"])
    def test_simbench_runs_and_writes_gateable_doc(self, mode, tmp_path, capsys):
        import json

        out = tmp_path / f"BENCH_simulate-{mode}.json"
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
        for key in ("makespan_seconds", "tflops", "h2d_bytes", "wall_seconds",
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
        assert (docs["stream"]["makespan_seconds"]
                == docs["materialize"]["makespan_seconds"])
        # at nt=10 the default window (floor 4096) spans the whole DAG,
        # so live counts merely must not exceed the materialised count;
        # the strict < comparison runs at nt=96 in benchmarks/
        assert (docs["stream"]["peak_live_tasks"]
                <= docs["materialize"]["peak_live_tasks"])


class TestSimulateFlagCoherence:
    def test_replay_with_stream_is_rejected(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        assert main(["simulate", "--n", "1024", "--nb", "128",
                     "--schedule-out", str(sched)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--n", "1024", "--nb", "128", "--stream",
                     "--replay", str(sched)]) == 2
        captured = capsys.readouterr()
        assert "--replay" in captured.err and "--stream" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "makespan" not in captured.out

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

    @pytest.mark.parametrize("content", [None, "not json\n", "[1, 2]\n"],
                             ids=["missing", "non-json", "non-object"])
    def test_unreadable_replay_file_is_a_usage_error(self, content, tmp_path, capsys):
        """Exit 1 means "replay diverged" (CI greps for it); a schedule
        that cannot be read is exit 2 with one line, not a traceback."""
        sched = tmp_path / "sched.json"
        if content is not None:
            sched.write_text(content, encoding="utf-8")
        assert main(["simulate", "--n", "1024", "--nb", "128",
                     "--replay", str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"simulate: cannot read schedule {sched}")
        assert len(captured.err.strip().splitlines()) == 1
        assert "makespan" not in captured.out

    def test_streamed_schedule_replays_bit_identically(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        assert main(["simulate", "--n", "1024", "--nb", "128", "--stream",
                     "--schedule-out", str(sched)]) == 0
        assert main(["simulate", "--n", "1024", "--nb", "128",
                     "--replay", str(sched),
                     "--trace-out", str(tmp_path / "trace.json")]) == 0
        assert "bit-identical" in capsys.readouterr().out


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
            "mle", "maps", "simulate", "sweep", "info", "analyze", "compare", "watch",
        }

    def test_verb_flag_count(self):
        # every argument of every verb, positionals included
        assert sum(len([a for a in sp._actions if a.dest != "help"])
                   for sp in self._subparsers().values()) == 78

    def test_capture_flag_verbs_parse_as_before(self):
        """``mle``, ``simulate`` and ``sweep`` argument for argument against
        the dump taken before ``_add_capture_flags`` existed (order apart;
        ``simulate``'s entry was re-dumped minus its trace-as-CSV output
        flag, the one flag deleted since: nothing read that format, and
        again when ``--schedule-out``'s help lost ".npz": JSON is the one
        schedule format)."""
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

    def test_stream_and_replay_are_parameters_of_simulate(self):
        sim = self._verbs()["simulate"]
        assert {"--policy", "--replay", "--stream", "--lookahead"} <= set(sim)


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
