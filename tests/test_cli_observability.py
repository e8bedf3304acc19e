"""CLI coverage for the ``--profile-out`` flags and ``compare``'s
argument errors."""

import json

import pytest

from repro.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestProfileVerb:
    """``--profile-out`` on ``simulate`` and ``sweep``: the hottest-frames
    table on stdout plus the run summary with a ``profile`` section."""

    def test_profile_prints_frames_and_rate(self, tmp_path, capsys):
        assert main(["simulate", "--n", str(8 * 256), "--nb", "256",
                     "--profile-out", str(tmp_path / "prof.json")]) == 0
        out = capsys.readouterr().out
        assert "tasks/s" in out
        assert "measured overhead" in out
        assert "n=2048, nb=256" in out

    def test_profile_out_document(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["simulate", "--n", str(8 * 256), "--nb", "256",
                     "--policy", "critical-path",
                     "--profile-out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert doc["profile"]["tasks_per_second"] > 0
        assert doc["profile"]["n_samples"] >= 0
        assert doc["stats"]["n_tasks"] > 0  # the run's own summary rides along
        assert doc["manifest"]["policy"] == "critical-path"
        assert doc["manifest"]["config"]["n"] == 8 * 256

    def test_simulate_profile_out(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["simulate", "--n", "4096", "--nb", "1024",
                     "--profile-out", str(out_path)]) == 0
        assert "profile →" in capsys.readouterr().out
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert "profile" in doc
        assert doc["manifest"]["command"] == "simulate"

    def test_sweep_profile_out(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["sweep", "--n", "2048", "--nb", "512",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--profile-out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert doc["manifest"]["command"] == "sweep"
        assert len(doc["runs"]) == 1
        # the campaign's planned tasks over the profiled wall time
        assert doc["profile"]["tasks_per_second"] > 0


class TestCompareVerb:
    def test_compare_without_candidates_errors(self, tmp_path, capsys):
        doc = _write(tmp_path / "base.json",
                     {"stats": {"makespan_seconds": 1.0, "tflops": 10.0}})
        with pytest.raises(SystemExit) as exc:
            main(["compare", doc])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro compare")
        assert err.strip().endswith("error: the following arguments are required: candidate")
