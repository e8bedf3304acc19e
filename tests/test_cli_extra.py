"""Additional CLI coverage: exact mode, sqexp nugget defaults, policies."""

import pytest

from repro.cli import main


class TestMLEVariants:
    def test_exact_flag(self, capsys):
        assert main(["mle", "--model", "2d-matern", "--n", "49",
                     "--accuracy", "1e-2", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "1e-02" in out

    def test_sqexp_gets_default_nugget(self, capsys):
        assert main(["mle", "--model", "2d-sqexp", "--n", "49"]) == 0
        out = capsys.readouterr().out
        assert "nugget=0.01" in out

    def test_nugget_override(self, capsys):
        assert main(["mle", "--model", "3d-sqexp", "--n", "27",
                     "--nugget", "0.05"]) == 0
        assert "nugget=0.05" in capsys.readouterr().out


class TestMapsAccuracyOverride:
    def test_override_changes_fractions(self, capsys):
        main(["maps", "--app", "2d-matern", "--n", "8192", "--nb", "1024"])
        base = capsys.readouterr().out
        main(["maps", "--app", "2d-matern", "--n", "8192", "--nb", "1024",
              "--accuracy", "1e-1"])
        loose = capsys.readouterr().out
        assert base != loose
        assert "u_req=0.1" in loose

    def test_override_samples_the_map_once(self, monkeypatch, capsys):
        import repro.bench.apps as apps

        calls = []
        real = apps.app_kernel_map

        def counting(app, *args, **kwargs):
            calls.append(app.accuracy)
            return real(app, *args, **kwargs)

        monkeypatch.setattr(apps, "app_kernel_map", counting)
        assert main(["maps", "--app", "2d-matern", "--n", "8192", "--nb", "1024",
                     "--accuracy", "1e-1"]) == 0
        assert calls == [1e-1]


class TestSimulateConfigs:
    @pytest.mark.parametrize("config", ["FP64", "FP32", "FP64/FP16_32"])
    def test_all_configs_run(self, config, capsys):
        assert main(["simulate", "--n", "4096", "--nb", "1024",
                     "--config", config]) == 0
        assert "Tflop/s" in capsys.readouterr().out

    def test_multi_node(self, capsys):
        assert main(["simulate", "--n", "8192", "--nb", "1024",
                     "--gpus", "2", "--nodes", "2"]) == 0
        assert "2x2x" in capsys.readouterr().out


class TestScheduleCompare:
    """Comparing schedules: one policy per ``simulate``, a ``--policy``
    axis per ``sweep``."""

    def test_unknown_policy_rejected(self):
        for verb in ("simulate", "sweep"):
            with pytest.raises(SystemExit):
                main([verb, "--policy", "yolo"])

    def test_simulate_policy_flag_and_trace_metadata(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["simulate", "--n", "2048", "--nb", "256",
                     "--policy", "critical-path",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "policy critical-path" in out
        doc = json.loads(trace.read_text())
        assert doc["metadata"] == {"policy": "critical-path"}

    def test_sweep_policy_axis(self, tmp_path, capsys):
        assert main(["sweep", "--n", "1024", "--nb", "256",
                     "--policy", "panel-first", "--policy", "fifo",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--name", "pol-axis"]) == 0
        out = capsys.readouterr().out
        assert "panel-first" in out and "fifo" in out
